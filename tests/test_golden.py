"""The output contract: every record of the golden corpus, re-run.

`tests/golden/corpus.json` holds the exit code, standard output and
standard error of `lps` on the four fixtures, pinned synthetic plants and
a handful of `factor`, `verify` and `parse` inputs (see
`tests/golden/generate.py`, which also regenerates it).  Each record is
run again in-process and must match byte for byte.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate = _load_generator()
RECORDS = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))


def test_corpus_lists_every_invocation():
    assert [[r["id"], r["argv"]] for r in RECORDS] == [[i, a] for i, a in generate.invocations()]


@pytest.mark.parametrize("record", RECORDS, ids=[r["id"] for r in RECORDS])
def test_golden_record(record):
    got = generate.run(record["argv"])
    assert got == {k: record[k] for k in ("exit_code", "stdout", "stderr")}
