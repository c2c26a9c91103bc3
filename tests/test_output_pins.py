"""SHA-256 pins of the bytes seeded CLI commands print and write.

Each case runs one command in-process and hashes its stdout and every side
file it names.  The other CLI tests read documents back as JSON, so only
these pins notice a change in key order, number formatting or layout.  A
change that moves a pin on purpose updates the digest here and records the
old and new values in CHANGES.md.
"""

import hashlib

import pytest

from spongedim.cli import run

# a Bernoulli measure on sponge_234 far from the coordinate uniform one, so
# the cube scan records violations of the sandwich
SKEWED_234 = (
    '{"0,0,0": "9/10", "0,0,3": "1/90", "0,1,2": "1/90", "1,0,2": "1/90", '
    '"1,1,0": "1/90", "1,1,1": "1/90", "1,1,2": "1/90", "1,2,0": "1/90", '
    '"1,2,2": "1/90", "1,2,3": "1/90"}'
)

# id -> (argv, side files); "@name" is sample_specs/name.json and "{tmp}/"
# a file in the test's scratch directory
CASES = {
    "dims-234": (["dims", "@sponge_234"], ()),
    "dims-344": (["dims", "@sponge_344"], ()),
    "validate": (["validate", "@carpet_vssc_34"], ()),
    "weights": (["weights", "@sponge_234"], ()),
    "cube-measure": (
        ["cube-measure", "@sponge_234", "--word", "1,0,2;1,1,0;0,1,2",
         "--scale", "1/8", "--measure", "{tmp}/skew.json"],
        (),
    ),
    "count": (["count", "@sponge_234", "--scale", "1/64"], ()),
    "scan": (
        ["scan", "@sponge_234", "--samples", "20", "--seed", "5", "--depth", "12",
         "--samples-csv", "{tmp}/scan.csv"],
        ("scan.csv",),
    ),
    "scan-violations": (
        ["scan", "@sponge_234", "--measure", "{tmp}/skew.json", "--samples", "12",
         "--seed", "1", "--depth", "12", "--samples-csv", "{tmp}/skew.csv"],
        ("skew.csv",),
    ),
    "ball-scan": (
        ["ball-scan", "@carpet_vssc_34", "--samples", "20", "--seed", "3",
         "--depth", "6", "--samples-csv", "{tmp}/ball.csv"],
        ("ball.csv",),
    ),
    "doubling-measure": (
        ["doubling", "@sponge_234", "--measure", "{tmp}/skew.json",
         "--max-depth", "5"],
        (),
    ),
    "doubling-grid": (
        ["doubling", "@carpet_24", "--grid", "1/8", "--max-depth", "11"], ()
    ),
    # the deepest depth the cube-count cap admits on sponge_234
    "doubling-deep": (
        ["doubling", "@sponge_234", "--measure", "{tmp}/skew.json",
         "--max-depth", "10"],
        (),
    ),
    "tangent-max": (
        ["tangent", "@sponge_234", "--scale", "1/16", "--mode", "max",
         "--level", "6", "--emit-boxes", "{tmp}/cover.csv"],
        ("cover.csv",),
    ),
    "tangent-min": (
        ["tangent", "@sponge_234", "--scale", "1/16", "--mode", "min",
         "--level", "7"],
        (),
    ),
    "family-lg": (["family-lg", "--min", "1/10", "--max", "1/2", "--step", "1/10"], ()),
    "render-csv": (
        ["render", "@sponge_234", "--level", "2", "--out", "{tmp}/cover.csv"],
        ("cover.csv",),
    ),
    "render-svg": (
        ["render", "@carpet_24", "--level", "3", "--out", "{tmp}/cover.svg"],
        ("cover.svg",),
    ),
}

PINS = {
    "ball-scan": {
        "exit": 0,
        "stdout": "58d56a8c291e6c116e7696a9bd4fba7dd33bb1e18b334eba3600a056de47fd46",
        "files": {
            "ball.csv": "3ea4357f3cdb238a621e88c4548ae2cc1d2318a5f370926a5228bfe56e4fc9fc",
        },
    },
    "count": {
        "exit": 0,
        "stdout": "06516f7a6e849dd3bbe5e3cd905cbaf7dab8f059572d2586adde4eb88ceabdd3",
        "files": {},
    },
    "cube-measure": {
        "exit": 0,
        "stdout": "65e3177e0e5c9b4bc413e4305c5a168db566be8720b53731427c50ab148b72dd",
        "files": {},
    },
    "dims-234": {
        "exit": 0,
        "stdout": "b86f97f0ba227c4380e9212f2979468d705b6a4ce930affe541e85654a50b58c",
        "files": {},
    },
    "dims-344": {
        "exit": 0,
        "stdout": "af24120406d0ff0b0e21baaa73592d18321f189475395a3f8a515a1190f2ff95",
        "files": {},
    },
    "doubling-deep": {
        "exit": 0,
        "stdout": "5e8b0113d6c51a1f1447606f95ed7888dc10513ab52d255bd1fe56b261325ca6",
        "files": {},
    },
    "doubling-grid": {
        "exit": 0,
        "stdout": "7231d35736985694b60026bc1a4e6da959b137217aa8d1e8464cdeb129a01a2a",
        "files": {},
    },
    "doubling-measure": {
        "exit": 0,
        "stdout": "e361d504fa22eae96df18a216e434a8d758c540bcd33e32c2982c6ab897e6096",
        "files": {},
    },
    "family-lg": {
        "exit": 0,
        "stdout": "91d61b068c044286df423dbf8d7ff3bca2777d14a6b06f26572c899b97eb2660",
        "files": {},
    },
    "render-csv": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "cover.csv": "b73065fe68366fd1c6c4f73c3e2617c95d83a081a66f4eaaa0ee2ca3c96a8765",
        },
    },
    "render-svg": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "cover.svg": "dd726f2860f1349c94089eaba50661bdcb0892ee4d8d3fe872e5d4de1d234ff1",
        },
    },
    "scan": {
        "exit": 0,
        "stdout": "551ea8e14f5dc298c1fc697b0d72d7ce50b7e9e71f050ccd0173fd9e0bb9212e",
        "files": {
            "scan.csv": "f4fcf90a036faa6a5d8b213b40e8152f6da6191f7130d121cc7b70231ed14c3c",
        },
    },
    "scan-violations": {
        "exit": 0,
        "stdout": "3b13c1d3ba1405b092a79aaa25479137834bd9bd9745d223197a3be09131327d",
        "files": {
            "skew.csv": "e49a308e36549aefbfc63541d021cdea25e060aa07596970ed8741627d0dcb3b",
        },
    },
    "tangent-max": {
        "exit": 0,
        "stdout": "db09712fb8e811fef2d64ab8511e09dd350ba90a63568672421c9a58597c1847",
        "files": {
            "cover.csv": "7a8ceba5b7700daf1ad446bdca2c2186652636ffff88352dfec20f71f392f15c",
        },
    },
    "tangent-min": {
        "exit": 0,
        "stdout": "ea849a0e0a7c78fa4d47368d3854c8f87b072febd5833e8461b9caeddea871a1",
        "files": {},
    },
    "validate": {
        "exit": 0,
        "stdout": "de79a761e5509c6f7bbd6172ef6186cc57395c566684b885c28053ae7bb037cb",
        "files": {},
    },
    "weights": {
        "exit": 0,
        "stdout": "50bbe2489dbecef2b9fca991de4a2817cf79e85a2d4043646a4fe80501195f28",
        "files": {},
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(case: str, spec_dir, tmp_path, capsys) -> dict:
    """Exit code and SHA-256 of stdout and of each side file of one case."""
    argv, files = CASES[case]
    (tmp_path / "skew.json").write_text(SKEWED_234, encoding="utf-8")
    resolved = [
        str(spec_dir / f"{arg[1:]}.json") if arg.startswith("@")
        else arg.replace("{tmp}", str(tmp_path))
        for arg in argv
    ]
    rc = run(resolved)
    out = capsys.readouterr().out
    return {
        "exit": rc,
        "stdout": _sha(out.encode("utf-8")),
        "files": {name: _sha((tmp_path / name).read_bytes()) for name in files},
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_pinned(case, spec_dir, tmp_path, capsys):
    assert digests(case, spec_dir, tmp_path, capsys) == PINS[case]
