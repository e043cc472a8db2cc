"""Pinned SHA-256 digests of every experiment's SMOKE payload.

``digests.json`` (next to this file) maps each experiment of
:data:`repro.experiments.report.MODULES` to the SHA-256 of its
``run(SMOKE).to_json()``; the ablations are pinned one by one, as
``ablations.<name>``.  A change that moves any simulated number fails
the comparison, even one that moves serial and parallel runs alike.

Check a report run against the pinned file::

    PYTHONPATH=src python -m repro.experiments.report --scale smoke --json smoke.json
    PYTHONPATH=src python -m tests.experiments.digests smoke.json

Regenerate it (and add a CHANGES.md line saying why the numbers moved)::

    PYTHONPATH=src python -m repro.experiments.report --scale smoke --json smoke.json --out /dev/null && PYTHONPATH=src python -m tests.experiments.digests smoke.json --update
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

#: The pinned ``{key: sha256}`` file.
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(document) -> str:
    """The digest of a result's ``to_dict()``: its ``to_json()`` bytes."""
    text = json.dumps(document, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digests(name: str, document) -> Dict[str, str]:
    """``{key: sha256}`` of one experiment's ``to_dict()``."""
    if name == "ablations":
        return {"ablations.%s" % ablation["name"]: sha256(ablation)
                for ablation in document["points"]}
    return {name: sha256(document)}


def load() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def report_digests(path: str) -> Dict[str, str]:
    """The digests of every experiment in a ``report --json`` file."""
    document = json.loads(Path(path).read_text())
    if document["scale"] != "smoke":
        raise SystemExit("%s: scale is %r; the digests pin smoke"
                         % (path, document["scale"]))
    out: Dict[str, str] = {}
    for record in document["experiments"]:
        out.update(payload_digests(record["name"], record["result"]))
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.experiments.digests",
        description="Compare a smoke-scale report --json file against "
                    "the pinned payload digests.")
    parser.add_argument("report", help="output of report --scale smoke --json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite digests.json from the report instead")
    args = parser.parse_args(argv)
    found = report_digests(args.report)
    if args.update:
        DIGESTS_PATH.write_text(json.dumps(found, indent=2, sort_keys=True)
                                + "\n")
        print("wrote %d digests to %s" % (len(found), DIGESTS_PATH))
        return 0
    pinned = load()
    bad = sorted(key for key in found if found[key] != pinned.get(key))
    missing = sorted(set(pinned) - set(found))
    for key in bad:
        print("MOVED %s: %s (pinned %s)" % (key, found[key], pinned.get(key)),
              file=sys.stderr)
    for key in missing:
        print("MISSING %s: not in %s" % (key, args.report), file=sys.stderr)
    if bad or missing:
        return 1
    print("%d payload digests match %s" % (len(found), DIGESTS_PATH.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
