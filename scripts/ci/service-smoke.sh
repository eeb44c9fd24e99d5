#!/bin/sh
# Service smoke test: proves the campaign service end to end, at the
# process level, the way a user runs it.
#
#   1. ccfit-serve starts on an ephemeral port; a fig7a campaign
#      submitted through `ccfit-run -server` must render byte-identical
#      stdout to a plain local `ccfit-run fig7a`.
#   2. Resubmitting the same campaign must be served entirely from the
#      shared result cache (metrics assert zero fresh simulations).
#   3. The other ccfit-run modes go through the same path: a parameter
#      sweep (one campaign per value) and a load curve must each print
#      the same bytes locally and with -server.
#   4. `-seeds 0` means one seed: it must print the same bytes as
#      `-seeds 1`.
#   5. Kill-and-restart: the server is SIGTERMed mid-campaign (graceful
#      drain), restarted on the same address over the same journal and
#      cache, and the waiting client rides through; the resumed
#      campaign's rendered output must still be byte-identical to the
#      local run.
#
# Everything here goes through the public surfaces only: the HTTP API,
# the CLI flags, the handshake line, SIGTERM.
set -e

workdir=$(mktemp -d)
trap 'kill $serve_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir" ./cmd/ccfit-serve ./cmd/ccfit-run

start_server() {
    : > "$workdir/serve.log"
    "$workdir/ccfit-serve" -addr "$1" -data "$workdir/state" -workers 4 \
        > "$workdir/serve.log" 2>&1 &
    serve_pid=$!
    url=""
    i=0
    while [ $i -lt 100 ]; do
        url=$(sed -n 's/^ccfit-serve: listening on //p' "$workdir/serve.log")
        [ -n "$url" ] && return 0
        kill -0 "$serve_pid" 2>/dev/null || break
        sleep 0.2
        i=$((i + 1))
    done
    echo "FAIL: ccfit-serve did not come up"
    cat "$workdir/serve.log"
    exit 1
}

metric() {
    curl -sf "$url/metrics" | sed -n "s/^ *\"$1\": \([0-9.]*\),*$/\1/p"
}

start_server 127.0.0.1:0

echo "== remote fig7a matches local run"
"$workdir/ccfit-run" -server "$url" fig7a > "$workdir/remote.out"
"$workdir/ccfit-run" fig7a > "$workdir/local.out"
diff "$workdir/local.out" "$workdir/remote.out"

echo "== duplicate submission is 100% cache hits"
done_before=$(metric jobs_done)
"$workdir/ccfit-run" -server "$url" fig7a > "$workdir/remote2.out"
diff "$workdir/remote.out" "$workdir/remote2.out"
done_after=$(metric jobs_done)
if [ "$done_before" != "$done_after" ]; then
    echo "FAIL: resubmission ran $((done_after - done_before)) fresh simulations, want 0"
    exit 1
fi

echo "== remote sweep and load curve match local runs"
for mode in "-sweep islip -schemes CCFIT fig7a" \
    "-loadcurve 2 -schemes 1Q,CCFIT -loads 0.4,0.8 -ms 0.5"; do
    # $mode is unquoted on purpose: it splits into separate arguments.
    "$workdir/ccfit-run" -server "$url" $mode > "$workdir/mode-remote.out"
    "$workdir/ccfit-run" $mode > "$workdir/mode-local.out"
    diff "$workdir/mode-local.out" "$workdir/mode-remote.out"
done

echo "== -seeds 0 renders like -seeds 1"
"$workdir/ccfit-run" -seeds 0 fig7a > "$workdir/seeds0.out"
diff "$workdir/local.out" "$workdir/seeds0.out"

echo "== kill-and-restart mid-campaign"
# A multi-seed campaign is long enough to interrupt; the client's Wait
# polls through the restart window.
port=${url##*:}
"$workdir/ccfit-run" -server "$url" -seeds 8 fig7a > "$workdir/restart-remote.out" &
client_pid=$!
sleep 1
kill -TERM "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
grep -q drained "$workdir/serve.log" || {
    echo "FAIL: server did not drain gracefully"
    cat "$workdir/serve.log"
    exit 1
}
start_server "127.0.0.1:$port"
resumed=$(metric campaigns_resumed)
if ! wait "$client_pid"; then
    echo "FAIL: client did not ride through the restart"
    cat "$workdir/serve.log"
    exit 1
fi
"$workdir/ccfit-run" -seeds 8 fig7a > "$workdir/restart-local.out"
diff "$workdir/restart-local.out" "$workdir/restart-remote.out"
if [ "${resumed:-0}" = "0" ]; then
    echo "NOTE: campaign finished before the restart window (nothing resumed)"
fi

echo "service smoke: OK"
