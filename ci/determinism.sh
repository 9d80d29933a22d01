#!/usr/bin/env bash
# End-to-end checks of the deepcoda CLI: outputs that must not depend on the
# CPU count, commands that must run without scipy, under an ASCII locale
# and cleanly in Python's dev mode (and give the same bytes outside it), and
# failed commands that must leave the file system as they found it.
#
#   bash ci/determinism.sh            # every check
#   bash ci/determinism.sh explain    # the named checks only
#
# Run from the root of a checkout with deepcoda importable (pip install -e .).
# Each check works in its own directory under one temporary root, which is
# removed when the script exits.
set -eo pipefail

root=$(mktemp -d)
trap 'rm -rf "$root"' EXIT

# The benchmark CSV does not depend on the CPU count.
check_benchmark() {
  work=$(mktemp -d "$root/check.XXXXXX")
  python3 -m deepcoda simulate toy --n 200 --out "$work/data"
  # Flip every third label, so AUCs differ between methods and splits
  # and a wrong merge order or a drifted AUC changes the CSV.
  awk -F, 'BEGIN { OFS = "," } NR > 1 && NR % 3 == 2 { $NF = 1 - $NF } 1' \
    "$work/data/relative.csv" > "$work/noisy.csv"
  bench="python3 -m deepcoda benchmark $work/noisy.csv --splits 4 --epochs 50"
  taskset -c 0 $bench --out "$work/serial.csv"
  $bench --out "$work/parallel.csv"
  test "$(cut -d, -f4 "$work/serial.csv" | sort -u | wc -l)" -gt 6
  cmp "$work/serial.csv" "$work/parallel.csv"
}

# The LASSO baseline converges on separable absolute counts (stderr
# stays empty, so no fit stopped before its duality gap closed), and its
# coefficients do not depend on the CPU count.
check_baseline() {
  work=$(mktemp -d "$root/check.XXXXXX")
  python3 -m deepcoda simulate cmyc --n 1000 --out "$work/data"
  quiet() {
    status=0
    "$@" 2> "$work/stderr.txt" || status=$?
    cat "$work/stderr.txt"
    test "$status" -eq 0 && test ! -s "$work/stderr.txt"
  }
  baseline="python3 -m deepcoda baseline $work/data/absolute.csv"
  quiet taskset -c 0 $baseline --out "$work/serial.csv"
  quiet $baseline --out "$work/parallel.csv"
  cmp "$work/serial.csv" "$work/parallel.csv"
}

# Training output does not depend on the CPU count, with either head.
check_train() {
  work=$(mktemp -d "$root/check.XXXXXX")
  # 20,000 rows: above 10,000 elements an OpenBLAS dot product
  # splits its sum across threads.
  python3 -m deepcoda simulate cmyc --n 20000 --out "$work/data"
  for head in self_explain linear; do
    printf 'epochs = 5\nhead = %s\n' "$head" > "$work/$head.cfg"
    train="python3 -m deepcoda train $work/data/relative.csv --config $work/$head.cfg"
    taskset -c 0 $train --out "$work/$head-serial.txt"
    $train --out "$work/$head-parallel.txt"
    grep -qx "head = $head" "$work/$head-serial.txt"
    cmp "$work/$head-serial.txt" "$work/$head-parallel.txt"
    cmp "$work/$head-serial.txt.report.csv" "$work/$head-parallel.txt.report.csv"
  done
}

# Explain output does not depend on the CPU count, and is the whole batch's report.
check_explain() {
  work=$(mktemp -d "$root/check.XXXXXX")
  # 10,000 rows: three blocks, which forked workers read, explain and
  # format when more than one CPU is usable.
  python3 -m deepcoda simulate cmyc --n 10000 --out "$work/data"
  printf 'epochs = 20\n' > "$work/train.cfg"
  python3 -m deepcoda train "$work/data/relative.csv" --config "$work/train.cfg" \
    --out "$work/model.txt"
  cp "$work/data/relative.csv" "$work/relative.csv"
  # Absolute counts with a zero in every seventh row, so the workers impute.
  awk -F, 'BEGIN { OFS = "," } NR > 1 && NR % 7 == 0 { $3 = 0 } 1' \
    "$work/data/absolute.csv" > "$work/zeros.csv"
  grep -q ',0,' "$work/zeros.csv"
  # Ids that need quotes: a file holding a quote is read as one block.
  sed -e '2,$s/^S\([0-9]*\)/"S,\1"/' "$work/data/relative.csv" > "$work/quoted.csv"
  # CRLF line ends, which the block reader leaves to csv: a whole-file read.
  sed -e 's/$/\r/' "$work/data/relative.csv" > "$work/crlf.csv"
  # A value in the middle block that float() reads and the block reader
  # leaves to csv: that block, and so the command, falls back to a
  # whole-file read.
  awk -F, 'BEGIN { OFS = "," } NR == 5000 { $3 = "1_0" } 1' \
    "$work/data/absolute.csv" > "$work/underscore.csv"
  grep -q ',1_0,' "$work/underscore.csv"
  # A row that sums to 1 within 1e-9, but not once its zero is imputed: the
  # file is still relative, and explained.
  { cat "$work/data/relative.csv"
    echo 'drift,0.18337780306830323,0.1651560664806076,0.14698177255737394,0.061191411624961632,0,0.10763746162742269,0.016279230655204924,0.12745460031013756,0.095884513083640308,0.096037141592348094,1'
  } > "$work/drift.csv"
  # Twelve copies of one row: every W and Z column is constant, and explain
  # prints one warning line for them.
  { head -n 1 "$work/data/relative.csv"
    for i in $(seq 12); do sed -n "2s/^[^,]*,/same$i,/p" "$work/data/relative.csv"; done
  } > "$work/same.csv"
  echo 'warning: constant columns detected; their correlations are reported as 0' > "$work/same.err"
  inputs="relative zeros quoted crlf underscore drift same"
  for input in $inputs; do
    # Every other input's stderr stays empty.
    expected=/dev/null
    if [ "$input" = same ]; then expected="$work/same.err"; fi
    explain="python3 -m deepcoda explain $work/model.txt $work/$input.csv"
    taskset -c 0 $explain --out "$work/$input/serial" 2> "$work/serial.err"
    $explain --out "$work/$input/parallel" 2> "$work/parallel.err"
    cat "$work/serial.err" "$work/parallel.err"
    cmp "$work/serial.err" "$expected"
    cmp "$work/parallel.err" "$expected"
    for name in explanations.csv memberships.csv correlations.csv summary.txt; do
      cmp "$work/$input/serial/$name" "$work/$input/parallel/$name"
    done
  done
  # The files are render_report's tables of the whole batch, byte for byte.
  python3 - "$work" $inputs <<'PY'
import sys
from pathlib import Path

from deepcoda import (contrast_membership, explain_batch, load_params, render_report,
                      weight_contrast_correlation)
from deepcoda.cli import load_dataset

work = Path(sys.argv[1])
params = load_params(work / "model.txt")
for name in sys.argv[2:]:
    matrix, _ = load_dataset(work / f"{name}.csv")
    batch = explain_batch(params, matrix.values, matrix.sample_ids)
    memberships = [contrast_membership(params, b, matrix.feature_names)
                   for b in range(params.dims[1])]
    correlations = weight_contrast_correlation(batch.w, batch.z)
    bundle = render_report(batch, memberships, correlations)
    tables = {"explanations.csv": bundle.explanations_csv,
              "memberships.csv": bundle.memberships_csv,
              "correlations.csv": bundle.correlations_csv,
              "summary.txt": bundle.summary}
    for file, text in tables.items():
        assert (work / name / "serial" / file).read_bytes() == text.encode(), (name, file)
PY
  # A pipe, which has no offsets to read blocks at, is read once into memory
  # and then split into blocks, or, quoted or CRLF, read whole from those
  # bytes: `piped MODEL DATA REPORT` checks that DATA through a pipe gives the
  # files in REPORT.
  piped() {
    cat "$2" | python3 -m deepcoda explain "$1" /dev/stdin --out "$3.pipe"
    for name in explanations.csv memberships.csv correlations.csv summary.txt; do
      cmp "$3.pipe/$name" "$3/$name"
    done
  }
  for input in relative quoted crlf; do
    piped "$work/model.txt" "$work/$input.csv" "$work/$input/serial"
  done
  # The parent process holds one block at a time, and so does each worker,
  # which keeps the memory its blocks free: explaining perfbench's explain
  # input (50,000 rows) and that input repeated to 800,000 rows, the
  # parent's own peak memory and the largest worker's (getrusage of an
  # in-process run) each grow by 10 MiB at most. A pipe of the 800,000 rows
  # is held once, in the parent and inherited by the workers: each peaks at
  # most the pipe's bytes above the file's, within the same 10 MiB, which
  # covers the runs' spread (a whole-file read of those rows takes over 1 GiB).
  mkdir "$work/memory"
  python3 - "$work/memory" "$PWD/perfbench" <<'PY'
import os
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[2])
import workloads
from deepcoda.cli import run

os.chdir(sys.argv[1])
_, setup = workloads.prepare_explain(Path("."), 1, workloads.FULL)
for argv in setup:
    assert run(argv) == 0
PY
  # 13 blocks: more than the fork map sends at once (2 per worker), so
  # blocks are sent as others return, and the bytes still do not depend on
  # the CPU count.
  explain="python3 -m deepcoda explain $work/memory/model.txt $work/memory/data.csv"
  taskset -c 0 $explain --out "$work/memory/serial"
  $explain --out "$work/memory/parallel"
  for name in explanations.csv memberships.csv correlations.csv summary.txt; do
    cmp "$work/memory/serial/$name" "$work/memory/parallel/$name"
  done
  piped "$work/memory/model.txt" "$work/memory/data.csv" "$work/memory/serial"
  {
    head -n 1 "$work/memory/data.csv"
    for _ in $(seq 16); do tail -n +2 "$work/memory/data.csv"; done
  } > "$work/memory/data800k.csv"
  cat > "$work/memory/peak.py" <<'PY'
import contextlib
import io
import resource
import sys

from deepcoda.cli import run

work, data = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["explain", f"{work}/model.txt", data, "--out", f"{work}/out"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
PY
  peak_kib() {
    python3 "$work/memory/peak.py" "$work/memory" "$1"
  }
  # Each run's peaks are assigned first: a run that fails then stops the script.
  peaks=$(peak_kib "$work/memory/data.csv")
  read -r small small_worker <<< "$peaks"
  peaks=$(peak_kib "$work/memory/data800k.csv")
  read -r large large_worker <<< "$peaks"
  mv "$work/memory/out" "$work/memory/out800k"
  peaks=$(cat "$work/memory/data800k.csv" | peak_kib /dev/stdin)
  read -r piped piped_worker <<< "$peaks"
  pipe_kib=$(( $(wc -c < "$work/memory/data800k.csv") / 1024 ))
  echo "explain's peak memory: $small KiB at 50,000 rows, $large KiB at 800,000 rows," \
    "$piped KiB at 800,000 rows through a pipe of $pipe_kib KiB"
  echo "its largest worker's: $small_worker KiB at 50,000 rows, $large_worker KiB at 800,000" \
    "rows, $piped_worker KiB through the pipe"
  test "$((large - small))" -le 10240
  test "$((large_worker - small_worker))" -le 10240
  test "$((piped - large))" -le "$((pipe_kib + 10240))"
  test "$((piped_worker - large_worker))" -le "$((pipe_kib + 10240))"
  # The same 800,000 rows with CRLF line ends, which the blocks decline: the
  # whole-file path reads every row in this process, but writes them
  # explain._ROW_BLOCK at a time, so its peak stays within 16 times the
  # file's bytes (a whole report of those rows held at once takes 38 times),
  # and its report is the LF file's.
  sed -e 's/$/\r/' "$work/memory/data800k.csv" > "$work/memory/crlf800k.csv"
  peaks=$(peak_kib "$work/memory/crlf800k.csv")
  read -r crlf _ <<< "$peaks"
  for name in explanations.csv memberships.csv correlations.csv summary.txt; do
    cmp "$work/memory/out/$name" "$work/memory/out800k/$name"
  done
  crlf_bytes=$(wc -c < "$work/memory/crlf800k.csv")
  echo "its peak memory with CRLF line ends: $crlf KiB for $crlf_bytes bytes"
  test "$((crlf * 1024))" -le "$((16 * crlf_bytes))"

  # A rejected input: the serial and the free run exit 2 with the same error
  # line, which holds $2, and neither makes its --out directory.
  rejected() {
    explain="python3 -m deepcoda explain $work/model.txt $work/$1.csv"
    status=0
    taskset -c 0 $explain --out "$work/$1/serial" 2> "$work/serial.err" || status=$?
    test "$status" -eq 2
    status=0
    $explain --out "$work/$1/parallel" 2> "$work/parallel.err" || status=$?
    test "$status" -eq 2
    cmp "$work/serial.err" "$work/parallel.err"
    grep -q "$2" "$work/serial.err"
    test ! -e "$work/$1"
  }
  # A byte that is not UTF-8 at the start of line 5000, in the middle block.
  { head -n 4999 "$work/data/absolute.csv"; printf '\377'; tail -n +5000 "$work/data/absolute.csv"; } \
    > "$work/undecodable.csv"
  rejected undecodable "undecodable.csv:5000: 'utf-8' codec can't decode byte 0xff"
  # A quote opened at the start of line 4 and never closed: csv reads on until
  # the field outgrows its limit, and the error names line 4.
  sed -e '4s/^/"/' "$work/data/absolute.csv" > "$work/unclosed.csv"
  rejected unclosed "unclosed.csv:4: field larger than field limit"
  # A value of 131,073 digits on line 6001, in the middle block: float()
  # reads it, csv does not, so the block declines and the error names line 6001.
  python3 - "$work/data/absolute.csv" "$work/oversize.csv" <<'PY'
import csv
import sys

lines = open(sys.argv[1], encoding="utf-8").read().split("\n")
fields = lines[6000].split(",")
fields[2] = "0" * csv.field_size_limit() + "1"
lines[6000] = ",".join(fields)
open(sys.argv[2], "w", encoding="utf-8").write("\n".join(lines))
PY
  rejected oversize "oversize.csv:6001: field larger than field limit"
  # Line 5000 holds four 1e-323 and six 0: its zeros impute to 5e-324 and its
  # other parts rescale to 0, which imputation rejects by the row's line.
  awk -F, 'BEGIN { OFS = "," } NR == 5000 { for (j = 2; j <= 5; j++) $j = "1e-323"; for (j = 6; j <= 11; j++) $j = 0 } 1' \
    "$work/data/absolute.csv" > "$work/underflow.csv"
  rejected underflow "underflow.csv:5000: imputed value underflows to zero"
}

# Every CLI command runs without scipy.
check_no_scipy() {
  work=$(mktemp -d "$root/check.XXXXXX")
  # scipy is only a test dependency. A None entry in sys.modules makes
  # every import of it fail, a lazy one on any command's path included.
  deepcoda() {
    python3 -c 'import sys; sys.modules["scipy"] = None; from deepcoda.cli import main; main()' "$@"
  }
  deepcoda simulate toy --n 200 --out "$work/data"
  deepcoda train "$work/data/relative.csv" --out "$work/model.txt"
  deepcoda explain "$work/model.txt" "$work/data/relative.csv" --out "$work/explain"
  deepcoda benchmark "$work/data/relative.csv" --splits 2 --epochs 50 --out "$work/bench.csv"
  deepcoda baseline "$work/data/relative.csv" --out "$work/baseline.csv"
}

# Every CLI command runs under an ASCII locale.
check_ascii_locale() {
  work=$(mktemp -d "$root/check.XXXXXX")
  python3 -m deepcoda simulate toy --n 200 --out "$work/data"
  # Non-ASCII sample ids and feature names, which a C locale can
  # neither decode nor print by default.
  sed -e '1s/feature_/μ_/g' -e '2,$s/^S/é/' "$work/data/relative.csv" > "$work/names.csv"
  ascii="env LC_ALL=C PYTHONUTF8=0 PYTHONCOERCECLOCALE=0 python3 -m deepcoda"
  $ascii train "$work/names.csv" --out "$work/model.txt"
  $ascii explain "$work/model.txt" "$work/names.csv" --out "$work/ascii"
  $ascii benchmark "$work/names.csv" --splits 2 --epochs 50 --out "$work/bench.csv"
  $ascii baseline "$work/names.csv" --out "$work/baseline.csv"
  python3 -m deepcoda explain "$work/model.txt" "$work/names.csv" --out "$work/utf8"
  for name in explanations.csv memberships.csv correlations.csv summary.txt; do
    cmp "$work/ascii/$name" "$work/utf8/$name"
  done
}

# Every CLI command runs clean in Python's dev mode, and the same outside it.
check_dev_mode() {
  work=$(mktemp -d "$root/check.XXXXXX")
  mkdir "$work/dev" "$work/frozen"
  # Dev mode prints ResourceWarnings (an unclosed file) and
  # DeprecationWarnings. One raised in __del__ is only printed, and the
  # exit code stays 0 even under -W error, so any stderr fails the check.
  # Outside dev mode main() freezes the garbage collector before it exits,
  # so shutdown skips its full collections: each command also runs that
  # way, with each @ in its arguments standing for its mode's directory,
  # and its stdout (@ again in place of that directory) and every file it
  # writes must match the dev-mode run's byte for byte.
  dev() {
    for mode in dev frozen; do
      flags=()
      if [ "$mode" = dev ]; then flags=(-X dev); fi
      status=0
      python3 "${flags[@]}" -m deepcoda "${@//@/$work/$mode}" \
        > "$work/stdout.txt" 2> "$work/stderr.txt" || status=$?
      cat "$work/stderr.txt"
      test "$status" -eq 0 && test ! -s "$work/stderr.txt"
      sed "s|$work/$mode|@|g" "$work/stdout.txt" >> "$work/$mode/stdout.txt"
    done
  }
  dev simulate toy --n 10000 --out @/data
  dev train @/data/relative.csv --out @/model.txt
  # 10,000 rows: three blocks of the explanations table, so the fork
  # map forks its workers where more than one CPU is usable.
  dev explain @/model.txt @/data/relative.csv --out @/explain
  dev benchmark @/data/relative.csv --splits 2 --epochs 50 --out @/bench.csv
  dev baseline @/data/relative.csv --out @/baseline.csv
  diff -r "$work/dev" "$work/frozen"
}

# A command that fails leaves the file system as it found it: with a
# directory where its last output goes, it exits 2 and changes no file.
check_failed_outputs() {
  work=$(mktemp -d "$root/check.XXXXXX")
  tree="$work/tree"  # what the snapshots cover
  python3 -m deepcoda simulate toy --n 200 --out "$tree/data"
  printf 'epochs = 50\n' > "$tree/train.cfg"
  mkdir "$tree/out"
  python3 -m deepcoda train "$tree/data/relative.csv" --config "$tree/train.cfg" \
    --out "$tree/out/y.txt"
  python3 -m deepcoda explain "$tree/out/y.txt" "$tree/data/relative.csv" --out "$tree/report"
  rm "$tree/out/y.txt.report.csv" "$tree/report/summary.txt"
  mkdir -p "$tree/out/y.txt.report.csv/kept" "$tree/report/summary.txt" "$tree/sim/relative.csv"
  snapshot() {
    find "$tree" | sort
    find "$tree" -type f -exec sha256sum {} + | sort
  }
  fails() {
    status=0
    python3 -m deepcoda "$@" > /dev/null 2> "$work/stderr.txt" || status=$?
    cat "$work/stderr.txt"
    test "$status" -eq 2
  }
  snapshot > "$work/before.txt"
  # A new model would differ from the one in place.
  fails train "$tree/data/relative.csv" --config "$tree/train.cfg" --seed 1 --out "$tree/out/y.txt"
  fails simulate toy --n 200 --out "$tree/sim"
  fails explain "$tree/out/y.txt" "$tree/data/absolute.csv" --out "$tree/report"
  snapshot | diff "$work/before.txt" -
}

checks=("$@")
if [ ${#checks[@]} -eq 0 ]; then
  checks=(benchmark baseline train explain no_scipy ascii_locale dev_mode failed_outputs)
fi
for check in "${checks[@]}"; do
  echo "== $check"
  "check_$check"
done
