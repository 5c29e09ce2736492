#!/bin/sh
# Kill-and-resume through the CLI at the owners' intermediate merge: a
# budgeted, checkpointed synthesize is SIGKILLed inside its first
# spill.merge pass, then resumed. The resumed CADJ must equal an unbounded
# run's bytes, and its spill: line must count the runs restored from the
# checkpoint apart from this life's (none) and the merge passes' bytes.
#
# Usage: resume_after_merge_kill.sh <chisim binary> <scratch dir>
set -eu
chisim=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
"$chisim" simulate --logs "$dir/logs" --persons 2000 --ranks 2 > /dev/null
"$chisim" synthesize --logs "$dir/logs" --out "$dir/clean.cadj" > /dev/null

budgeted="--memory-budget 256K --checkpoint-dir $dir/ckpt"
status=0
CHISIM_FAULT_PLAN='v1;0;spill.merge,5,1,1,-1,0,0' \
  "$chisim" synthesize --logs "$dir/logs" $budgeted \
  --out "$dir/killed.cadj" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 137 ]; then
  echo "expected SIGKILL (exit 137) inside spill.merge, got exit $status"
  exit 1
fi
"$chisim" synthesize --logs "$dir/logs" $budgeted --resume \
  --out "$dir/resumed.cadj" > "$dir/resumed.log"
cat "$dir/resumed.log"
cmp "$dir/clean.cadj" "$dir/resumed.cadj"
grep -Eq '^spill: .*, 0 runs \(0 KiB, 0 triplets\), [1-9][0-9]* restored, [1-9][0-9]* owner merge passes \([1-9][0-9]* [KM]iB\)$' \
  "$dir/resumed.log"
