"""Cooperative and notary state files: the committed goldens reload and
re-save byte for byte, and no single change to a real state file makes a
CLI command crash, or rewrite the file when it refuses it.

``tests/goldens/coop.state`` and ``notary.state`` were written by the CLI
(``issue`` twice, once per substitute mode; ``countersign`` of the first
pair and a rejected ``countersign`` of a crossed pair; ``revoke`` of the
second pair; ``disclose`` to a compatible and to an incompatible
jurisdiction).  The notary file's ``mirror`` entry and its one
``rejections`` entry were entered by hand before the rewrites, since no
command adds them.
"""

import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopattest.canonical import canonical_parse, canonical_serialize
from coopattest.cli import main
from coopattest.cooperative import Cooperative
from coopattest.errors import DecodeError
from coopattest.notary import Notary

from conftest import mutated

GOLDEN_DIR = Path(__file__).parent / "goldens"
ACTORS = {"coop.state": Cooperative, "notary.state": Notary}
ORIGINALS = {name: canonical_parse((GOLDEN_DIR / name).read_bytes()) for name in ACTORS}


@pytest.mark.parametrize("name", sorted(ACTORS))
def test_golden_state_resaves_byte_identical(tmp_path, name):
    path = tmp_path / name
    shutil.copyfile(GOLDEN_DIR / name, path)
    ACTORS[name].load_state(path).save_state(path)
    assert path.read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a pair issued from the golden cooperative."""
    work = tmp_path_factory.mktemp("state")
    shutil.copyfile(GOLDEN_DIR / "coop.state", work / "coop.state")
    assert main(["issue", "--coop", str(work / "coop.state"), "--member", "alice",
                 "--attrs", "age-over-18", "--mode", "absent", "--now", "14", "--ttl", "50",
                 "--out-plain", str(work / "pair.plain.att"),
                 "--out-blinded", str(work / "pair.blinded.att")]) == 0
    return work


def commands(work: Path) -> list[tuple[str, list[str]]]:
    """Each command that reads a state file, with the file it reads."""
    archived = ORIGINALS["notary.state"]["archive"][0]["blinded"]["attestation_id"].hex()
    issued = ORIGINALS["coop.state"]["issuances"][1]["blinded"]["attestation_id"].hex()
    coop, notary = str(work / "coop.state"), str(work / "notary.state")
    return [
        (coop, ["issue", "--coop", coop, "--member", "alice", "--attrs", "age-over-18",
                "--mode", "handle", "--now", "15", "--ttl", "50",
                "--out-plain", str(work / "x.plain.att"),
                "--out-blinded", str(work / "x.blinded.att")]),
        (notary, ["countersign", "--notary", notary, "--plain", str(work / "pair.plain.att"),
                  "--blinded", str(work / "pair.blinded.att"), "--now", "15",
                  "--out", str(work / "x.csa.att")]),
        (coop, ["revoke", "--coop", coop, "--id", issued, "--now", "40"]),
        (coop, ["status", "--coop", coop, "--id", archived, "--now", "50"]),
        (notary, ["disclose", "--notary", notary, "--id", archived, "--jurisdiction", "EU",
                  "--purpose", "travel-rule", "--now", "60"]),
    ]


# The map of each state file whose keys are the hex of attestation ids.
ID_MAPS = {"coop.state": "revoked", "notary.state": "mirror"}


def respelled(hex_id: str) -> dict[str, str]:
    """Other spellings of *hex_id* that ``bytes.fromhex`` reads, and one
    digit short."""
    return {"uppercase": hex_id.upper(),
            "spaced": " ".join(hex_id[i:i + 2] for i in range(0, len(hex_id), 2)),
            "63 digits": hex_id[:-1]}


@pytest.mark.parametrize("name", sorted(ID_MAPS))
@pytest.mark.parametrize("spelling", sorted(respelled("00")))
def test_an_id_key_not_in_lowercase_hex_is_refused(workdir, name, spelling):
    """One id spelled two ways would load as one entry, with either tick; so
    a key must be the id's own ``hex()``, and each command that reads the
    file exits 2 and leaves it as it was."""
    entries = ORIGINALS[name][ID_MAPS[name]]
    hex_id, tick = next(iter(entries.items()))
    raw = {**ORIGINALS[name],
           ID_MAPS[name]: {**entries, respelled(hex_id)[spelling]: tick + 1}}
    for actor in ACTORS:
        (workdir / actor).write_bytes(canonical_serialize(raw if actor == name else ORIGINALS[actor]))
    with pytest.raises(DecodeError):
        ACTORS[name].load_state(workdir / name)
    reading = [(path, argv) for path, argv in commands(workdir) if Path(path).name == name]
    assert len(reading) == {"coop.state": 3, "notary.state": 2}[name]
    for path, argv in reading:
        before = Path(path).read_bytes()
        assert main(argv) == 2, argv[0]
        assert Path(path).read_bytes() == before, argv[0]


def changed(name: str, key: str, value) -> tuple[str, dict]:
    return name, {**ORIGINALS[name], key: value}


CHANGED_STATES = st.sampled_from(sorted(ORIGINALS)).flatmap(
    lambda name: mutated(ORIGINALS[name]).map(lambda change: (name, change[2])))


@given(case=CHANGED_STATES)
@example(case=changed("coop.state", "nonce_counter", -1))
@example(case=changed("coop.state", "nonce_counter", 2**64))
@example(case=changed("coop.state", "key_seed", b""))
@example(case=changed("coop.state", "members", ORIGINALS["coop.state"]["members"] * 2))
@example(case=changed("coop.state", "year_tick", 365))
@example(case=changed("notary.state", "key_seed", b""))
@settings(max_examples=100, deadline=None)
def test_cli_on_changed_state(workdir, case):
    """Exit 0, 1 or 2, never an exception; on exit 2 the file is as it was."""
    name, raw = case
    for actor in ACTORS:
        (workdir / actor).write_bytes(canonical_serialize(raw if actor == name else ORIGINALS[actor]))
    for path, argv in commands(workdir):
        before = Path(path).read_bytes()
        code = main(argv)
        assert code in (0, 1, 2), argv[0]
        if code == 2:
            assert Path(path).read_bytes() == before, argv[0]
