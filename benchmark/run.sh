#!/usr/bin/env bash
# Build the benchmark and run it. Run from the root of a checkout.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is its result
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       every workload, untraced then traced; prints every metric
#   benchmark/run.sh --selfcheck [--seed <n>] [--seconds <s>]
#       the untraced set twice; fails if the two disagree beyond a bound
set -euo pipefail

manifest=benchmark/Cargo.toml
[ -f "$manifest" ] || { echo "run.sh: run from the root of a checkout ($manifest not found)" >&2; exit 2; }
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Profiles come from the building workspace: benchmark/Cargo.toml
# carries a copy of the root [profile.release]. Say so when they drift.
profile() { sed -n '/^\[profile\.release\]/,/^\[/p' "$1" | grep -E '^[a-z-]+ *=' | tr -d ' ' | sort | tr '\n' ' '; }
own_profile=$(profile "$manifest")
if [ -f Cargo.toml ] && [ "$(profile Cargo.toml)" != "$own_profile" ]; then
    echo "run.sh: WARNING: [profile.release] differs: root '$(profile Cargo.toml)' vs benchmark '$own_profile'" >&2
fi

cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin="$CARGO_TARGET_DIR/release/rsched-benchmark"

case " $* " in
    *" --workload "*) exec "$bin" "$@" ;;
esac

commit=$(git rev-parse --short HEAD 2>/dev/null || echo "not a git checkout")
echo "rsched-benchmark: commit $commit; $(rustc -V); nproc $(nproc); profile.release: $own_profile"
case " $* " in
    *" --selfcheck "*) exec "$bin" "$@" ;;
    *) exec "$bin" --all "$@" ;;
esac
