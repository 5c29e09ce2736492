#!/bin/sh
# Kill-and-resume through the CLI between batches: an unbounded,
# checkpointed synthesize is SIGKILLed right after its first batch's
# checkpoint, then resumed. Each of the three rank logs holds events at
# 8000 persons, so the resume has real batches left, and it decodes them
# from the logs: its CADJ must equal an uninterrupted run's bytes, and no
# checkpoint may leave a decoded batch (*.evt) behind.
#
# Usage: resume_after_batch_kill.sh <chisim binary> <scratch dir>
set -eu
chisim=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
"$chisim" simulate --logs "$dir/logs" --persons 8000 --ranks 3 > /dev/null
"$chisim" synthesize --logs "$dir/logs" --out "$dir/clean.cadj" > /dev/null

checkpointed="--batch 1 --checkpoint-dir $dir/ckpt"
status=0
CHISIM_FAULT_PLAN='v1;0;driver.batch,5,1,1,-1,0,0' \
  "$chisim" synthesize --logs "$dir/logs" $checkpointed \
  --out "$dir/killed.cadj" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 137 ]; then
  echo "expected SIGKILL (exit 137) after the first batch, got exit $status"
  exit 1
fi
"$chisim" synthesize --logs "$dir/logs" $checkpointed --resume \
  --out "$dir/resumed.cadj" > "$dir/resumed.log"
cat "$dir/resumed.log"
cmp "$dir/clean.cadj" "$dir/resumed.cadj"
grep -q '^resumed from checkpoint: skipped 1 already-consumed files$' \
  "$dir/resumed.log"
leftover=$(find "$dir/ckpt" -name '*.evt')
if [ -n "$leftover" ]; then
  echo "checkpoint dir holds decoded batches: $leftover"
  exit 1
fi
