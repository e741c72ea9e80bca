"""Document round trips, tamper detection, and the command-line surface.

Run:  python3 demos/documents_and_cli.py
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from spheremap import (
    DegreeMismatch,
    ValidationError,
    construct,
    degree,
    load_certificate,
    parse,
    serialize,
)
from spheremap.cli import main as cli


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    print("-- canonical serialization ---------------------------------------")
    cert = construct(2, 3)
    text = serialize(cert)
    print(f"document: {len(text)} bytes, "
          f"{len(json.loads(text)['facets'])} facets")
    print(f"byte-identical round trip: {serialize(load_certificate(text)) == text}")
    print()

    print("-- parsing re-validates everything --------------------------------")
    doc = json.loads(text)
    doc["metadata"]["claimed_degree"] = 9
    try:
        parse(json.dumps(doc))
    except DegreeMismatch as e:
        print(f"tampered claim rejected: {e}")
    doc = json.loads(text)
    doc["facets"].append([1, 2, 99])
    try:
        parse(json.dumps(doc))
    except ValidationError as e:
        print(f"broken complex rejected: {e}")
    print()

    print("-- the same flows through the CLI ---------------------------------")
    # insertion needs a positively signed facet on the last target
    facet = min(f for f, sign in degree(cert.labeled).per_target_facet[4] if sign == 1)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sphere.json"
        for argv in (
            ["construct", "--n", "2", "--d", "3", "--out", str(path)],
            ["verify", str(path)],
            ["insert", str(path), "--facet", ",".join(map(str, facet)), "--out", str(path)],
            ["verify", str(path)],
            ["search", "--n", "1", "--d", "2", "--max-vertices", "6"],
        ):
            print(f"$ spheremap {' '.join(argv)}")
            code = cli(argv)
            print(f"(exit {code})")
            print()
            if code != 0:
                failed.append(argv[0])
    if failed:
        sys.exit(f"CLI steps failed: {failed}")


if __name__ == "__main__":
    main()
