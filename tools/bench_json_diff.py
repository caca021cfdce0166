#!/usr/bin/env python3
"""Identity gate for committed bench documents.

    python3 tools/bench_json_diff.py COMMITTED.json FRESH.json

Compares the deterministic parts of two twl-report/1 documents: every
table (name, columns and rows) and every scalar. Provenance, runner
timings and metrics are host-dependent and ignored. Prints each difference
and exits 1 if there is any, else prints "<COMMITTED> reproduced".
"""

import json
import sys


def differences(want, got):
    bad = []
    tables = lambda d: {t['name']: t for t in d['tables']}
    tw, tg = tables(want), tables(got)
    for name in sorted(set(tw) | set(tg)):
        if name not in tw or name not in tg:
            bad.append(f'table {name}: only in one of the two')
            continue
        if tw[name]['columns'] != tg[name]['columns']:
            bad.append(f'table {name}: columns differ')
        for i, (a, b) in enumerate(zip(tw[name]['rows'], tg[name]['rows'])):
            if a != b:
                bad.append(f'table {name} row {i}: {a} -> {b}')
        if len(tw[name]['rows']) != len(tg[name]['rows']):
            bad.append(f'table {name}: row count differs')
    for key in sorted(set(want['scalars']) | set(got['scalars'])):
        a, b = want['scalars'].get(key), got['scalars'].get(key)
        if a != b:
            bad.append(f'scalar {key}: {a} -> {b}')
    return bad


def main(argv):
    if len(argv) != 3:
        sys.exit('usage: tools/bench_json_diff.py COMMITTED.json FRESH.json')
    with open(argv[1]) as f:
        want = json.load(f)
    with open(argv[2]) as f:
        got = json.load(f)
    bad = differences(want, got)
    print('\n'.join(bad) or f'{argv[1]} reproduced')
    return 1 if bad else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
