#!/usr/bin/env bash
# Builds and runs the marchgen benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload table3-cold --seed 1 --seconds 10 --trace 0
#
# --trace 0 runs the end-to-end binary (cmd/e2e); --trace 1 runs the
# layer-traced binary (cmd/traced), which is built only then, so a change
# to an internal layer signature can break the traced run but never the
# end-to-end one. Build outputs, the Go build cache and span files go to
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace) trace="${args[i + 1]:-}" ;;
	--trace=*) trace="${args[i]#--trace=}" ;;
	esac
done
case "$trace" in
0) bin=e2e ;;
1) bin=traced ;;
*)
	echo "run.sh: --trace must be 0 or 1" >&2
	exit 2
	;;
esac

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/$bin" "./cmd/$bin") >&2
if [ "$bin" = traced ]; then
	exec "$out/$bin" --root "$root" --out "$out" "$@"
fi
exec "$out/$bin" --root "$root" "$@"
