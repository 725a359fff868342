#!/bin/sh
# End-to-end exercise of fastqre_serverd + fastqre_client over a real
# socket: mixed submit / status / cancel traffic, typed rejections, and a
# clean SIGTERM shutdown. CI runs this under ASan+UBSan and TSan; it is
# also runnable locally:
#
#   tests/server_integration.sh build            # normal traffic
#   tests/server_integration.sh build --chaos    # deterministic wire chaos
#
# --chaos starts the daemon with fixed-seed socket fault sites (a reset
# mid-stream, read stalls, short writes — DESIGN.md §15.5) and drives a
# retrying idempotent client through them: the run passes only if the
# client reassembles a complete, gap-free, duplicate-free sequence-numbered
# answer stream across the forced reconnect, the repeated submit never
# creates a second job, and the daemon still shuts down cleanly (a wedged
# connection thread would hang the SIGTERM wait and trip the ctest
# timeout). CI runs this mode under ASan+UBSan and TSan.
#
# Everything asserts on the documented exit-code contract (0 found,
# 1 exhausted, 3 stopped early, 4 typed rejection / transport error) and
# on --json payload fields, never on human-rendered text.
set -u

BUILD=${1:?usage: server_integration.sh BUILD_DIR [--chaos]}
MODE=${2:-}
CLI=$BUILD/tools/fastqre
SERVERD=$BUILD/tools/fastqre_serverd
CLIENT=$BUILD/tools/fastqre_client
for bin in "$CLI" "$SERVERD" "$CLIENT"; do
  if [ ! -x "$bin" ]; then
    echo "missing binary: $bin" >&2
    exit 2
  fi
done

WORK=$(mktemp -d)
SERVER_PID=
FAILURES=0

fail() {
  echo "FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null
    wait "$SERVER_PID" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# ---- fixture data --------------------------------------------------------
"$CLI" gen-tpch --out "$WORK/db" --scale 0.001 --seed 3 >/dev/null || exit 2
"$CLI" demo-rout --db "$WORK/db" --query L01 --out "$WORK/easy.csv" \
  >/dev/null || exit 2
"$CLI" demo-rout --db "$WORK/db" --query L10 --out "$WORK/hard.csv" \
  >/dev/null || exit 2

# ---- server --------------------------------------------------------------
# Ephemeral port + port-file handshake; generous limits so only the cases
# below that WANT a rejection see one. Chaos mode adds the fixed-seed wire
# fault schedule (sequential traffic keeps the per-rule hit counters on the
# same frames every run: write 1 = pong, 2 = accepted, 3 = first answer —
# reset fires there — and everything from write 4 on goes out in 1-byte
# sends) plus tight-but-serveable deadlines.
if [ "$MODE" = "--chaos" ]; then
  FAULTS="wire-accept=stall@1..1,wire-read=stall@2..3"
  FAULTS="$FAULTS,wire-write=reset@3..3,wire-write=short-write@4..999"
  set -- --io-deadline-ms 5000 --idle-timeout-ms 5000 --fault-spec "$FAULTS"
else
  set --
fi
"$SERVERD" --db tpch="$WORK/db" --port 0 --port-file "$WORK/port" \
  --workers 4 --max-jobs 8 --pool-mb 512 \
  --default-slice-mb 64 --max-slice-mb 128 \
  --rate 200 --burst 100 "$@" >"$WORK/serverd.log" 2>&1 &
SERVER_PID=$!

i=0
while [ ! -s "$WORK/port" ] && [ "$i" -lt 300 ]; do
  sleep 0.1
  i=$((i + 1))
done
if [ ! -s "$WORK/port" ]; then
  cat "$WORK/serverd.log" >&2
  echo "server never wrote its port file" >&2
  exit 2
fi
PORT=$(cat "$WORK/port")

# ---- chaos mode ----------------------------------------------------------
if [ "$MODE" = "--chaos" ]; then
  # C1. ping through the (stalling) accept path still answers.
  out=$("$CLIENT" --port "$PORT" ping --json)
  rc=$?
  [ "$rc" -eq 0 ] || fail "chaos ping exit $rc"
  case "$out" in
    *'"kind":"pong"'*) ;;
    *) fail "chaos ping payload malformed: $out" ;;
  esac

  # C2. A keyed submit rides out the injected mid-stream reset: the client
  # reconnects, resumes via attach, and must end with a complete, gap-free,
  # duplicate-free sequence-numbered stream (a gap or divergence is exit 4).
  "$CLIENT" --port "$PORT" submit --db tpch --rout "$WORK/easy.csv" \
    --tenant chaos --idempotency-key chaos-k1 --all 2 \
    --retries 8 --backoff-ms 50 --json \
    >"$WORK/chaos1.json" 2>"$WORK/chaos1.err"
  rc=$?
  [ "$rc" -eq 0 ] || fail "chaos submit exit $rc (want 0)"
  grep -q '"kind":"done"' "$WORK/chaos1.json" ||
    fail "chaos stream has no done frame"
  grep -q '"seq":0' "$WORK/chaos1.json" ||
    fail "chaos stream answers carry no sequence numbers"
  dups=$(sed -n 's/.*"seq":\([0-9]*\).*/\1/p' "$WORK/chaos1.json" |
    sort | uniq -d)
  [ -z "$dups" ] || fail "duplicate sequence numbers in chaos stream: $dups"
  grep -q 'retrying in' "$WORK/chaos1.err" ||
    fail "injected reset never forced a reconnect (chaos schedule drifted?)"
  JOB1=$(sed -n 's/.*"kind":"accepted".*"job":\([0-9]*\).*/\1/p' \
    "$WORK/chaos1.json" | head -n 1)
  [ -n "$JOB1" ] || fail "chaos submit has no accepted frame"

  # C3. Repeating the submit under the same idempotency key returns the
  # SAME job (byte-identical replayed stream), never a second admission.
  "$CLIENT" --port "$PORT" submit --db tpch --rout "$WORK/easy.csv" \
    --tenant chaos --idempotency-key chaos-k1 --all 2 \
    --retries 8 --backoff-ms 50 --json >"$WORK/chaos2.json" 2>&1
  rc=$?
  [ "$rc" -eq 0 ] || fail "chaos resubmit exit $rc (want 0)"
  JOB2=$(sed -n 's/.*"kind":"accepted".*"job":\([0-9]*\).*/\1/p' \
    "$WORK/chaos2.json" | head -n 1)
  [ "$JOB1" = "$JOB2" ] ||
    fail "idempotency key admitted a second job ($JOB1 vs $JOB2)"

  # C4. The pong load snapshot agrees: exactly one job exists, done, none
  # failed — and nothing is still running (no wedged stream threads).
  out=$("$CLIENT" --port "$PORT" ping --json)
  rc=$?
  [ "$rc" -eq 0 ] || fail "post-chaos ping exit $rc"
  case "$out" in
    *'"queued":0,"running":0,"done":1,"cancelled":0,"failed":0'*) ;;
    *) fail "post-chaos pong job counts wrong: $out" ;;
  esac

  # C5. Clean SIGTERM shutdown with the chaos schedule spent: Stop() joins
  # every connection thread or hangs here (ctest timeout catches it).
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
  rc=$?
  SERVER_PID=
  [ "$rc" -eq 0 ] || fail "chaos serverd SIGTERM exit $rc (want 0)"
  grep -q 'shutting down' "$WORK/serverd.log" ||
    fail "chaos serverd log missing shutdown marker"

  if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES failure(s)" >&2
    exit 1
  fi
  echo "server integration (chaos): PASS"
  exit 0
fi

# ---- 1. list-dbs shows the attached database -----------------------------
out=$("$CLIENT" --port "$PORT" list-dbs --json)
rc=$?
[ "$rc" -eq 0 ] || fail "list-dbs exit $rc"
case "$out" in
  *'"tpch"'*) ;;
  *) fail "list-dbs payload missing tpch: $out" ;;
esac

# ---- 1b. ping answers with the load snapshot -----------------------------
out=$("$CLIENT" --port "$PORT" ping --json)
rc=$?
[ "$rc" -eq 0 ] || fail "ping exit $rc"
case "$out" in
  *'"kind":"pong"'*) ;;
  *) fail "ping payload malformed: $out" ;;
esac

# ---- 2. plain submit finds an answer (exit 0, SELECT streamed) -----------
out=$("$CLIENT" --port "$PORT" submit --db tpch --rout "$WORK/easy.csv" \
  --tenant ci --all 2)
rc=$?
[ "$rc" -eq 0 ] || fail "easy submit exit $rc (want 0)"
case "$out" in
  *'answer[0]: SELECT'*) ;;
  *) fail "easy submit streamed no ranked SELECT" ;;
esac

# ---- 2b. an answer frame carries every --stats-json key ------------------
# Both are generated from QreStats' one field list: the frame's "stats"
# keys must equal the CLI line's keys minus its outcome (found,
# failure_reason). Keys only, because timings differ from run to run.
"$CLIENT" --port "$PORT" submit --db tpch --rout "$WORK/easy.csv" \
  --tenant ci --json >"$WORK/keys.json"
rc=$?
[ "$rc" -eq 0 ] || fail "stats-key submit exit $rc (want 0)"
"$CLI" reverse --db "$WORK/db" --rout "$WORK/easy.csv" --stats-json \
  >"$WORK/keys.cli"
rc=$?
[ "$rc" -eq 0 ] || fail "reverse --stats-json exit $rc (want 0)"
# Keys of a flat JSON object body read on stdin, one per line, sorted.
object_keys() {
  tr ',' '\n' | sed -n 's/^"\([^"]*\)":.*/\1/p' | LC_ALL=C sort
}
wire_keys=$(grep '"kind":"answer"' "$WORK/keys.json" | head -n 1 |
  sed -n 's/.*"stats":{\([^}]*\)}.*/\1/p' | object_keys)
cli_keys=$(grep '^{' "$WORK/keys.cli" | head -n 1 | tr -d '{}' |
  object_keys | grep -v -x -e found -e failure_reason)
if [ -z "$wire_keys" ] || [ "$wire_keys" != "$cli_keys" ]; then
  fail "answer stats keys differ from --stats-json keys:
wire: $(echo $wire_keys)
cli:  $(echo $cli_keys)"
fi

# ---- 3. deadline-stopped submit exits 3 with the engine's reason ---------
out=$("$CLIENT" --port "$PORT" submit --db tpch --rout "$WORK/hard.csv" \
  --tenant ci --budget 0.001 --json)
rc=$?
[ "$rc" -eq 3 ] || fail "deadline submit exit $rc (want 3)"
case "$out" in
  *'time budget exceeded'*) ;;
  *) fail "deadline submit missing failure_reason: $out" ;;
esac

# ---- 4. concurrent submits + status + cancel from a second connection ----
# One hard job in the background; poke it with status and cancel it while
# three easy jobs run beside it. Job id is parsed from the accepted frame.
"$CLIENT" --port "$PORT" submit --db tpch --rout "$WORK/hard.csv" \
  --tenant ci --json >"$WORK/bg.json" &
BG_PID=$!
for n in 1 2 3; do
  "$CLIENT" --port "$PORT" submit --db tpch --rout "$WORK/easy.csv" \
    --tenant "mix$n" >"$WORK/mix$n.out" &
  eval "MIX$n=$!"
done

JOB=
i=0
while [ -z "$JOB" ] && [ "$i" -lt 300 ]; do
  JOB=$(sed -n 's/.*"kind":"accepted".*"job":\([0-9]*\).*/\1/p' \
    "$WORK/bg.json" 2>/dev/null | head -n 1)
  [ -n "$JOB" ] || sleep 0.1
  i=$((i + 1))
done
if [ -z "$JOB" ]; then
  fail "background submit never acknowledged"
else
  out=$("$CLIENT" --port "$PORT" status --job "$JOB" --json)
  rc=$?
  [ "$rc" -eq 0 ] || fail "status exit $rc"
  case "$out" in
    *'"kind":"status"'*) ;;
    *) fail "status payload malformed: $out" ;;
  esac

  "$CLIENT" --port "$PORT" cancel --job "$JOB" >/dev/null ||
    fail "cancel rejected"
  wait "$BG_PID"
  rc=$?
  # The cancel may lose the race with completion; both outcomes are legal,
  # but the stream must have terminated with a done frame either way.
  if [ "$rc" -ne 3 ] && [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
    fail "cancelled submit exit $rc (want 0, 1, or 3)"
  fi
  grep -q '"kind":"done"' "$WORK/bg.json" ||
    fail "cancelled submit stream has no done frame"

  # The job outlives its connection: status still answers after done.
  "$CLIENT" --port "$PORT" status --job "$JOB" >/dev/null ||
    fail "post-done status rejected"
fi

for n in 1 2 3; do
  eval "wait \$MIX$n"
  rc=$?
  [ "$rc" -eq 0 ] || fail "mixed submit $n exit $rc (want 0)"
  grep -q 'answer\[0\]: SELECT' "$WORK/mix$n.out" ||
    fail "mixed submit $n streamed no answer"
done

# ---- 5. typed rejections exit 4 ------------------------------------------
"$CLIENT" --port "$PORT" status --job 999999 >/dev/null 2>&1
rc=$?
[ "$rc" -eq 4 ] || fail "unknown-job status exit $rc (want 4)"
"$CLIENT" --port "$PORT" submit --db nosuchdb --rout "$WORK/easy.csv" \
  >/dev/null 2>&1
rc=$?
[ "$rc" -eq 4 ] || fail "unknown-db submit exit $rc (want 4)"

# ---- 6. clean shutdown on SIGTERM ----------------------------------------
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
rc=$?
SERVER_PID=
[ "$rc" -eq 0 ] || fail "serverd SIGTERM exit $rc (want 0)"
grep -q 'shutting down' "$WORK/serverd.log" ||
  fail "serverd log missing shutdown marker"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES failure(s)" >&2
  exit 1
fi
echo "server integration: PASS"
exit 0
