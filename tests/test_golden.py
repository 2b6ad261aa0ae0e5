"""`groupspec check all --catalog large --format json` must stay
byte-identical across refactors: its digest is pinned here."""

import hashlib

from groupspec.cli import main

GOLDEN_SHA256 = "2c32f4bb89145c72e82a6c569ce41669feadb320356e5cb01e4ed7dacadce08b"


def test_check_all_large_json_is_unchanged(tmp_path):
    out = tmp_path / "all.json"
    main(["check", "all", "--catalog", "large", "--format", "json", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256
