"""Manifest digests: ``emit.sha256_text`` against ``hashlib`` as the
independent oracle, each SHA-256 constructor it may resolve to, and a
fresh interpreter in which no command loads OpenSSL."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgfold
from pgfold import emit

# One 64-byte block holds at most 55 message bytes with its padding, so
# texts of 55, 56, 64 and 65 bytes sit on the padding's block edges.
TEXTS = {
    "empty": "",
    "ascii": "row,col\n0,1\n",
    "non-ascii": "Δρ̂ — ü",
    "55 bytes": "a" * 55,
    "56 bytes": "b" * 56,
    "64 bytes": "ü" * 32,
    "65 bytes": "c" * 64 + "\n",
    "1 MB": "".join(f"{i},{i * 7 % 91}\n" for i in range(150_000))[:1_000_000],
}

CONSTRUCTORS = ("_sha2", "_sha256", "hashlib")


def oracle(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_edge_texts_have_their_byte_lengths():
    lengths = {name: len(TEXTS[name].encode("utf-8")) for name in TEXTS if "bytes" in name}
    assert lengths == {"55 bytes": 55, "56 bytes": 56, "64 bytes": 64, "65 bytes": 65}
    assert len(TEXTS["1 MB"]) == 1_000_000


@pytest.mark.parametrize("name", TEXTS)
def test_sha256_text_is_hashlib_digest_of_utf8(name):
    assert emit.sha256_text(TEXTS[name]) == oracle(TEXTS[name])


# hashlib's own constructor is the oracle, and the resolution test below
# hashes with it when both built-ins are blocked.
@pytest.mark.parametrize("module_name", ["_sha2", "_sha256"])
@pytest.mark.parametrize("name", TEXTS)
def test_each_importable_builtin_gives_the_hashlib_digest(module_name, name):
    constructor = pytest.importorskip(module_name).sha256
    assert constructor(TEXTS[name].encode("utf-8")).hexdigest() == oracle(TEXTS[name])


def _first_importable(blocked: set[str]) -> str:
    for module_name in CONSTRUCTORS:
        if module_name in blocked:
            continue
        try:
            importlib.import_module(module_name)
        except ImportError:
            continue
        return module_name
    raise AssertionError("hashlib is always importable")


@pytest.mark.parametrize(
    "blocked", [set(), {"_sha2"}, {"_sha2", "_sha256"}], ids=["none", "_sha2", "both"]
)
def test_constructor_resolves_to_first_importable(monkeypatch, blocked):
    for module_name in blocked:
        monkeypatch.setitem(sys.modules, module_name, None)
    expected = _first_importable(blocked)
    constructor = emit._sha256_constructor()
    assert constructor is getattr(sys.modules[expected], "sha256")
    for text in TEXTS.values():
        assert constructor(text.encode("utf-8")).hexdigest() == oracle(text)


def test_sha256_text_hashes_with_the_first_importable_constructor():
    assert emit._sha256 is getattr(sys.modules[_first_importable(set())], "sha256")


# Runs in a fresh interpreter: each command's exit code, then which of the
# OpenSSL modules the process has loaded.
CHILD = """
import contextlib, io, json, sys
from pgfold.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = [name for name in ("_hashlib", "_ssl") if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_command_loads_openssl(tmp_path):
    design = ["--geometry", "3,2,1", "--q", "3"]
    run = str(tmp_path / "run")
    commands = [
        ["run", *design, "--emit", "csv,json,hdl", "--out", run],
        ["schedule", *design, "--out", str(tmp_path / "schedule")],
        ["emit", *design, "--out", str(tmp_path / "emit")],
        ["simulate", "--out", run],
        ["verify", "--out", run],
        ["verify", *design],
    ]
    src = Path(pgfold.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(commands), "loaded": []}
