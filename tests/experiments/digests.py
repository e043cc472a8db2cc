"""Pinned SHA-256 digests of every experiment's SMOKE and QUICK payloads.

``digests.json`` (next to this file) holds one section per scale,
``{"smoke": {...}, "quick": {...}}``.  Each section maps every experiment
of :data:`repro.experiments.report.MODULES` to the SHA-256 of its
``run(scale).to_json()``; the ablations are pinned one by one, as
``ablations.<name>``.  A change that moves any simulated number fails
the comparison, even one that moves serial and parallel runs alike.
QUICK reaches regimes SMOKE does not (VPP's 256-packet bursts over 240
batches, fig07's and fig09's footprint grid, fig06's seven frame sizes),
and its payloads are the numbers EXPERIMENTS.md quotes.

Check a report run against the pinned section for its scale (the
report's ``scale`` field picks it)::

    PYTHONPATH=src python -m repro.experiments.report --scale smoke --json smoke.json
    PYTHONPATH=src python -m tests.experiments.digests smoke.json
    REPRO_JOBS=2 PYTHONPATH=src python -m repro.experiments.report --scale quick --json quick.json
    PYTHONPATH=src python -m tests.experiments.digests quick.json

Regenerate one section (and add a CHANGES.md line saying why the numbers
moved)::

    PYTHONPATH=src python -m repro.experiments.report --scale smoke --json smoke.json --out /dev/null && PYTHONPATH=src python -m tests.experiments.digests smoke.json --update
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

#: The pinned ``{scale: {key: sha256}}`` file.
DIGESTS_PATH = Path(__file__).with_name("digests.json")
#: The scales with a pinned section.
SCALES = ("smoke", "quick")


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


def load(scale: str = "smoke") -> Dict[str, str]:
    """The pinned ``{key: sha256}`` section of one scale."""
    return json.loads(DIGESTS_PATH.read_text())[scale]


def report_digests(path: str):
    """``(scale, {key: sha256})`` of every experiment in a ``report
    --json`` file."""
    document = json.loads(Path(path).read_text())
    scale = document["scale"]
    if scale not in SCALES:
        raise SystemExit("%s: scale is %r; the digests pin %s"
                         % (path, scale, " and ".join(SCALES)))
    out: Dict[str, str] = {}
    for record in document["experiments"]:
        out.update(payload_digests(record["name"], record["result"]))
    return scale, out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.experiments.digests",
        description="Compare a report --json file against the payload "
                    "digests pinned for its scale.")
    parser.add_argument("report",
                        help="output of report --scale smoke|quick --json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the report's scale section of "
                             "digests.json from the report instead")
    args = parser.parse_args(argv)
    scale, found = report_digests(args.report)
    if args.update:
        sections = json.loads(DIGESTS_PATH.read_text())
        sections[scale] = found
        DIGESTS_PATH.write_text(json.dumps(sections, indent=2, sort_keys=True)
                                + "\n")
        print("wrote %d %s digests to %s" % (len(found), scale, DIGESTS_PATH))
        return 0
    pinned = load(scale)
    bad = sorted(key for key in found if found[key] != pinned.get(key))
    missing = sorted(set(pinned) - set(found))
    for key in bad:
        print("MOVED %s: %s (pinned %s)" % (key, found[key], pinned.get(key)),
              file=sys.stderr)
    for key in missing:
        print("MISSING %s: not in %s" % (key, args.report), file=sys.stderr)
    if bad or missing:
        return 1
    print("%d %s payload digests match %s"
          % (len(found), scale, DIGESTS_PATH.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
