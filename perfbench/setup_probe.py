"""Set-up of one workload in a fresh process, for the ``setup_s`` metric.

Usage: setup_probe.py SRC MANIFEST. Imports tensorcalc from SRC, loads
every chart, field and bindings file the manifest names, then prints
``time.monotonic()``; the parent subtracts the moment it spawned us.
"""

import json
import sys
import time


def main():
    src, manifest = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import tensorcalc
    from tensorcalc import cli, curvilinear

    with open(manifest, encoding="utf-8") as fh:
        specs = json.load(fh)
    for name in specs["builtin"]:
        curvilinear.builtin_chart(name)
    for path in specs["charts"]:
        curvilinear.load_chart(path)
    for path in specs["fields"]:
        cli.load_field(path)
    for path in specs["bindings"]:
        with open(path, encoding="utf-8") as fh:
            for record in json.load(fh).values():
                tensorcalc.DenseTensor.from_dict(record)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
