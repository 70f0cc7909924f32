#!/usr/bin/env bash
# `--sample --seed S` and the `--serve` spec line with seed S must draw
# the same histograms for every seed a spec line accepts, so a served
# Result can be reproduced from the command line.  Checks both ends of
# the range, 0 and 2^53 - 1.
# Usage: cli_seed_parity.sh <hammer_cli>
set -euo pipefail

cli=$1

# The "histogram" member (raw and mitigated) of one Result JSON line.
histogram() {
    sed -n 's/.*"histogram":\({.*}\)}$/\1/p'
}

for seed in 0 9007199254740991; do
    sampled=$("$cli" --sample ghz:3 --backend channel --shots 100 \
        --seed "$seed" --format json | histogram) || {
        echo "FAIL: --sample rejected --seed $seed" >&2
        exit 1
    }
    served=$(echo "ghz:3,channel,100,$seed" |
        "$cli" --serve - 2> /dev/null | histogram) || {
        echo "FAIL: --serve rejected seed $seed" >&2
        exit 1
    }
    if [ -z "$sampled" ] || [ "$sampled" != "$served" ]; then
        echo "FAIL: seed $seed: --sample and --serve histograms differ" >&2
        echo "  --sample: $sampled" >&2
        echo "  --serve:  $served" >&2
        exit 1
    fi
done

echo "PASS: --sample --seed matches --serve at seeds 0 and 2^53 - 1"
