#!/bin/sh
# Runs the quick benchmark, then fails if the run failed or if anything
# it started survives: a process whose executable is the bench binary or
# maxbrserve, or a listener on one of the ports the run reported.
set -eu
cd "$(dirname "$0")/.."
mkdir -p bench/.build
out=$(mktemp -d "$PWD/bench/.build/leak.XXXXXX")
trap 'rm -rf "$out"' EXIT
status=0
sh bench/run.sh -quick -out "$out" >"$out/stdout" || status=$?
cat "$out/stdout"
if [ "$status" -ne 0 ]; then
	echo "leak_test: the quick run exited with status $status" >&2
	status=1
fi

for p in /proc/[0-9]*; do
	exe=$(readlink "$p/exe" 2>/dev/null || true)
	case "$exe" in
	*/bench/.build/bench* | */maxbrserve*)
		echo "leak_test: process ${p#/proc/} ($exe) is still running" >&2
		status=1
		;;
	esac
done
ports=$(sed -n 's/^ *ports //p' "$out/stdout")
[ -n "$ports" ] || { echo "leak_test: the run reported no ports" >&2; exit 1; }
for port in $ports; do
	hex=$(printf '%04X' "$port")
	# State 0A is LISTEN; the local address is hex ip:port.
	if awk -v want=":$hex" '$4 == "0A" && index($2, want) == length($2) - 4 { found = 1 } END { exit !found }' /proc/net/tcp; then
		echo "leak_test: port $port still listens" >&2
		status=1
	fi
done
[ "$status" -eq 0 ] && echo "leak_test: the run passed; no process and no listener left behind ($(echo $ports | wc -w) ports checked)"
exit "$status"
