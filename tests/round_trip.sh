#!/usr/bin/env bash
# The CLI round trip from the shell: every golden under tests/data through
# `python -m gcdheights.cli` at --jobs 1 and 2, --out and --baseline, and the
# refusals of the exit contract (0 ok, 1 usage, 2 computation error, 3
# baseline mismatch).  Run it from any directory:
#
#     bash tests/round_trip.sh
#
# It writes only in a temporary directory, which it removes on exit.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export PYTHONPATH=$ROOT/src
DATA=$ROOT/tests/data
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

cli() { python -m gcdheights.cli "$@"; }

# refuses PATTERN ARGS...: the CLI on ARGS exits 2 within 10 s, prints nothing
# on stdout, and one stderr line matching ^error: PATTERN
refuses() {
  local pattern=$1 code=0
  shift
  timeout 10 python -m gcdheights.cli "$@" > out.txt 2> err.txt || code=$?
  if [ "$code" -ne 2 ] || [ -s out.txt ] || [ "$(wc -l < err.txt)" -ne 1 ] \
    || ! grep -q "^error: $pattern" err.txt; then
    cat out.txt err.txt >&2
    echo "gcdheights $* exited $code: want 2, no stdout, one 'error: $pattern' line" >&2
    exit 1
  fi
}

# 1. importing the CLI loads no pool or dataclass machinery
python -X importtime -c "import gcdheights.cli" 2> imports.txt
if grep -E '\| +(concurrent\.futures|multiprocessing|dataclasses)(\.|$)' imports.txt; then
  echo "import gcdheights.cli loads the modules listed above" >&2
  exit 1
fi

# 2. every CSV golden through its subcommand, at --jobs 1 and 2
printf '%s\n' '{"kind": "SIEGEL", "parameters": {"curve": [0, 0, 1, -1, 0],' \
  '"point": [0, 0], "n_min": 5, "n_max": 40}}' > siegel.json
printf '%s\n' '{"kind": "SIEGEL", "parameters": {"curve": [0, 0, 0, 0, 17],' \
  '"point": [-2, 3], "n_max": 80}}' > siegel17.json
# 420 of its 484 cells are error rows
printf '%s\n' '{"kind": "CZ_TRICHOTOMY", "parameters": {"primes": [2, 3], "bound": 30,' \
  '"eps": 1e308, "error_budget": 1000}}' > czerrors.json
for jobs in 1 2; do
  cli gcdpow --a 2 --b 3 --eps 0.5 --nmax 300 --jobs $jobs \
    --baseline "$DATA/bcz_a2_b3_eps05_n300.csv" > /dev/null
  cli edsgcd --curve 0,0,1,-1,0 --point 0,0 --nmax 12 --eps 0.2 --jobs $jobs \
    --baseline "$DATA/edsgcd_37a1_eps02_n12.csv" > /dev/null
  cli mixed --curve 0,0,0,0,-2 --point 3,5 --primes 2,3 --eps 0.4 --nmax 6 --bbound 50 \
    --jobs $jobs --baseline "$DATA/mixed_m2_p35_eps04_n6.csv" > /dev/null
  cli pncheck --primes 2,3 --nmax 6 --eps 0.5 --jobs $jobs \
    --baseline "$DATA/pn_diag_s23_b6_eps05.csv" > /dev/null
  cli trichotomy --primes 2,7 --nmax 450 --eps 0.25 --jobs $jobs \
    --baseline "$DATA/cz_s27_b450_eps025.csv" > /dev/null
  cli sweep --config siegel.json --jobs $jobs \
    --baseline "$DATA/siegel_37a1_n5_40.csv" > /dev/null
  cli sweep --config siegel17.json --jobs $jobs \
    --baseline "$DATA/siegel_x3p17_m2_3_n80.csv" > /dev/null
  cli sweep --config czerrors.json --jobs $jobs \
    --baseline "$DATA/cz_s23_b30_eps1e308_errors.csv" > /dev/null
done

# 3. every JSON golden through its own config block, at --jobs 1 and 2
for golden in cz_s23_b12_eps025 edsgcd_37a1_eps02_n12 edsgcd_389a1_pq_eps02_n12 \
  pn_x123_s2_b3_eps04_d20_r3 abelian_389a1_pq_eps02_n40; do
  for jobs in 1 2; do
    cli sweep --config "$DATA/$golden.json" --format json --jobs $jobs \
      | sed 's/^  "version": "0.1.0"$/  "version": "0.0.0"/' | cmp - "$DATA/$golden.json"
  done
done

# 4. sweeps of several blocks through --out, then --baseline at --jobs 2
cli trichotomy --primes 2,3,5 --nmax 2000 --eps 0.25 --format json --jobs 1 --out cz.json
cli trichotomy --primes 2,3,5 --nmax 2000 --eps 0.25 --format json --jobs 2 \
  --baseline cz.json > /dev/null
cli gcdpow --a 2 --b 3 --nmax 8010 --eps 0.5 --jobs 1 --out bcz.csv
cli gcdpow --a 2 --b 3 --nmax 8010 --eps 0.5 --jobs 2 --baseline bcz.csv > /dev/null
cli sweep --config czerrors.json --format json --jobs 1 --out czerrors.out.json
cli sweep --config czerrors.json --format json --jobs 2 --baseline czerrors.out.json > /dev/null

# 5. an --out that cannot be written is refused
refuses '.*No such file or directory' gcdpow --a 2 --b 3 --nmax 6 --out missing/o.csv

# 6. a point of finite order is refused below its order, by a sweep
printf '%s\n' '{"kind": "SIEGEL", "parameters": {"curve": [0, 0, 0, 0, 1],' \
  '"point": [2, 3], "n_max": 5}}' > torsion.json
refuses '.*finite order 6' sweep --config torsion.json

# 7. and by eds
refuses '.*finite order 6' eds --curve 0,0,0,0,1 --point 2,3 --nmax 5

# 8. pncheck takes the codimension of linear forms from their rank and
# refuses another; an empty V, and a non-linear system without --codim, are
# refused too
pn="--poly X1-X0 --poly X2-X0 --poly X3-X0 --primes 2 --nmax 3 --eps 0.5"
refuses '.*codimension 3' pncheck $pn --codim 2
cli pncheck $pn --codim 3 > pn3.csv
cli pncheck $pn > pn.csv
cmp pn.csv pn3.csv
refuses 'V is empty' pncheck --poly X1-X0 --poly X1+X0 --primes 2 --nmax 3 --eps 0.5
nonlinear="--poly X1^2-X0^2 --poly X2-X0 --primes 2 --nmax 3 --eps 0.5"
refuses 'codim_r is required' pncheck $nonlinear
cli pncheck $nonlinear --codim 2 > /dev/null

# 9. an overflowing bound is one error, the same in CSV and JSON, and a huge
# --nmax is refused
for fmt in csv json; do
  refuses '.*OverflowError' gcdpow --a 2 --b 3 --nmax 3 --eps 1e308 --format $fmt
  mv err.txt "err_$fmt.txt"
done
cmp err_csv.txt err_json.txt
refuses 'n_max must be an integer <= ' gcdpow --a 2 --b 3 \
  --nmax 1000000000000000000000000000000

# 10. an emitted JSON result re-runs byte for byte
cli gcdpow --a 2 --b 3 --nmax 300 --eps 0.34030927323372034 --C 0.8474337369372327 \
  --format json --out r.json
cli sweep --config r.json --format json --baseline r.json > /dev/null

echo "round trip: all ten checks passed"
