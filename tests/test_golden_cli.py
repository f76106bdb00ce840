"""Golden CLI artifacts: the main subcommands must keep printing the same
bytes and returning the same exit codes.

Each case runs ``lsurf.cli.main`` in-process and hashes its stdout (for the
DOT case, the written DOT file) together with the exit code.  A ``spectral``
case first exports its ball with ``explore --json`` and hashes the output
of ``spectral`` on that file.  The digests
were computed once from a reference run and are never re-derived from the
code under test.
"""

import contextlib
import hashlib
import io

import pytest

from lsurf.cli import main

SURFACES = ("L8", "L5-1", "L17+1", "L12", "L13-1", "L41+1")
POINT = "1/5,1/5,2/5,1/5"

CASES = {
    "table-cn": ["table-cn", "--max", "20"],
    "components": ["components", "--N", "14"],
    "reduce": ["reduce", "--point", "-141,100,1/2,0", "--trace"],
    "explore": ["explore", "--point", "1/3,1/3,1/2,0", "--radius", "4"],
}
for _s in SURFACES:
    CASES[f"g2-json {_s}"] = ["explore", "--surface", _s, "--point", POINT, "--g2", "--radius", "3"]
    CASES[f"g2-dot {_s}"] = CASES[f"g2-json {_s}"] + ["--dot", "{dot}", "--json", "{json}"]
    CASES[f"classify {_s}"] = ["classify", "--surface", _s, "--point", POINT]
    CASES[f"verify-lemmas {_s}"] = ["verify-lemmas", "--surface", _s, "--samples", "40", "--seed", "3"]
# larger balls that merge many paths: POINT is doubly non-periodic on L8, so its
# single-step ball has cycles (1,076 vertices where the tree has 1,457)
CASES["explore cycles L8"] = ["explore", "--point", POINT, "--radius", "6"]
for _s in ("L5-1", "L17+1"):
    CASES[f"classify r5 {_s}"] = ["classify", "--surface", _s, "--point", POINT, "--radius", "5"]
# the G2 support is layer-symmetric (the quotient path of dirichlet_mu0), the
# single-step one is not (the general solver)
SPECTRAL = {
    "spectral g2 L8": (CASES["g2-json L8"], "2"),
    "spectral cycles L8": (CASES["explore cycles L8"], "5"),
}
for _name, (_export, _radius) in SPECTRAL.items():
    CASES[_name] = ["spectral", "--graph", "{json}", "--support-radius", _radius]

GOLDEN = {
    "classify L12": "864d63700c33c8afa5a45c2ebcac284395447e55b4289e5bf02253379635f2ef",
    "classify L13-1": "de01e2e54eb88ac841a75e36744880252d58cea4a903da73915bb7c7d59ab101",
    "classify L17+1": "4d6950cd6c7ad44e3f5905e37aa176b91a03cd55c39ae81a26f99b48622d5d42",
    "classify L41+1": "fdeb1a6069c8c3ca0b41257ce0267dfcb4c1b2be82931141e9640f9085c0329c",
    "classify L5-1": "624cb1cc983b8c626a4edf1149557bed238c47745e2e1c8336fa5d1dafc761ff",
    "classify L8": "c34c545eef36025e6ab003e9385074b0189a6aae9e6447ca02fdba1a04383d62",
    "classify r5 L17+1": "b49460a3b51734b3403cf3705b5ff2adf35fb4952b32b4351bb6b6649fa79fd0",
    "classify r5 L5-1": "413ee5d9b1a6ce41b2d8cb0c6e9ff3890c068cc117afdf2019ee756c41f6252d",
    "components": "e61aa496cc47b4fdbd56555fae7723d218a508c32c5c4e5812ecc538393370a9",
    "explore": "b57f907c708ab36e4a787d034ae22d383e7857a801179bec8f203d3801fd8a7a",
    "explore cycles L8": "6a1cfaf64d2e3658b0dbbb10dfcabe1945ca8b36204f722dae5d60f1e049b016",
    "g2-dot L12": "6883ae9f7a24315400f1922e3d7d65bee2fd28199ef9690ba9fec870aac8305c",
    "g2-dot L13-1": "663d60876c8ab08f11a2ca41681fcab63e96d65a599a94690475c15b308e8683",
    "g2-dot L17+1": "6e7334c9b9e53cd6561c19220a5d70ae6f12f9d427d8fea4a7aba362b97b27e8",
    "g2-dot L41+1": "99efffe7e265713ecfff4dd9b5a767fb81cd8ce0302e37edcadcd79b3938f740",
    "g2-dot L5-1": "05e91747d87d453b1fdacdc7fd152c364884e9c882f23eb38a19b65303e3d98c",
    "g2-dot L8": "b066aab8676930161be630534c5c094dc36504526634d22336a3185facaca47a",
    "g2-json L12": "fcf55528ca8b7570e286bc6e52b31543bddacd032293d35dad4dd73665534e5b",
    "g2-json L13-1": "ed86c167547d1f6daf502c9a6e8f13b03821ba6120e8d2e75d4e01704e8a6d04",
    "g2-json L17+1": "2f4cd22f16ccb7de2824ee3b4c26a44dc033fdd96fdee4d98ef54bc05afcc2f8",
    "g2-json L41+1": "37f42c75d322253d1f78c6dbe2749133665b8fa4a4ae3256f06943bdbd6f9da5",
    "g2-json L5-1": "27f949b99c98acb05d23c49c5c61818d6570e3f5637f21dc56556201c0fe7c87",
    "g2-json L8": "bbaf702b83698f2e4da7a4e9482377cd9d2952fa85f7f54bda1924ea1ee96b2c",
    "reduce": "ed1adde08a13c5f6cf946fa7d5b7cff45f1c98552939820c2fe24f62b02b9ef5",
    "spectral cycles L8": "0de2d31e9938c427e3c49ae90082473974e00e979d178b95df2233a38ab44b45",
    "spectral g2 L8": "e0aeb4b835c927f7486d22322e5b4466a787f2dea83cd36191997ce431a4f1da",
    "table-cn": "c74577934c143ac8134f933b7b401864b845172f7bb94ebb21cd2f75bd7f499e",
    "verify-lemmas L12": "c25d4060aac03254a78d04e42d9e77b389b930208235be9858f2b08c503982b0",
    "verify-lemmas L13-1": "d277fb5696f29196df4fa21aa54421921a759dbd080a4358078074830049df8a",
    "verify-lemmas L17+1": "1f5c0af4fa51546e20ea5d7a1c010f5597153c2fac2796cca83d63560f0d18b3",
    "verify-lemmas L41+1": "5fbc97e2170b9d95f2ab93a966f7418ccea49d0821f608473e9db65f258a08d8",
    "verify-lemmas L5-1": "3680730fd774afa09b0625f327a77d46160cef3324fe0c0bfd8880b9f0a97007",
    "verify-lemmas L8": "a3f8daee4b522913ed89de19482feacc8460513829d313a5b6aa4acddc676f84",
}


def cli_digest(name, tmp_path):
    """sha256 over the exit code and the case's artifact text."""
    dot = tmp_path / "ball.dot"
    if name in SPECTRAL:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(SPECTRAL[name][0] + ["--json", str(tmp_path / "ball.json")]) == 0
    argv = [a.format(dot=dot, json=tmp_path / "ball.json") for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = dot.read_text(encoding="utf-8") if name.startswith("g2-dot") else out.getvalue()
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifact_digest(name, tmp_path):
    assert cli_digest(name, tmp_path) == GOLDEN[name]


def test_verify_lemmas_digests_name_their_surface():
    # the header line names the prototype, seed and sample count
    digests = {GOLDEN[f"verify-lemmas {s}"] for s in SURFACES}
    assert len(digests) == len(SURFACES)
