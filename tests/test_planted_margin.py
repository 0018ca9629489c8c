"""The planted-margin corpus of ``helpers``: Φ_δ near the default cutoff T, and its mirror.

``classify`` reads a Kraus family as given, so it decides Φ_δ on the family's
own unit defects, which are at rounding, and on its spectrum: fixed_dim is n²
for δ < T and 1 for δ > T.  It refuses the mirror, whose own unit defects exceed
T although the Kraus keep drops the operator that carries them.

``analyze`` and ``decompose`` still decide validity on the canonical family,
after the keep, which misreads Φ_δ inside the keep band (ROADMAP item 27).
Those cases are strict xfails.
"""

import json

import pytest

from qbirkhoff import Channel, classify
from qbirkhoff.channels import channel_to_dict
from qbirkhoff.cli import main
from qbirkhoff.numerics import DEFAULT_TOLERANCE

import helpers

T = DEFAULT_TOLERANCE.cutoff
KEEP_BAND = (
    "ROADMAP item 27: the Kraus keep drops the depolarizing directions of Φ_δ, "
    "and the validity gate then refuses the kept family"
)


def _written(tmp_path, fam):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel_to_dict(Channel(fam))))  # the family as given
    return str(path)


def _in_band(n):
    return [r for r in helpers.PLANTED_RATIOS if helpers.planted_keep_band(n, r)]


@pytest.mark.parametrize("n", [3, 6])
def test_classify_decides_every_planted_channel(tmp_path, capsys, n):
    for ratio in helpers.PLANTED_RATIOS:
        fam = helpers.planted_depolarizing(n, ratio * T)
        want = n * n if ratio < 1 else 1
        assert classify(fam).fixed_dim == want, ratio
        assert main(["classify", _written(tmp_path, fam), "--json"]) == 0, ratio
        assert json.loads(capsys.readouterr().out)["fixed_dim"] == want, ratio


def test_the_keep_band_holds_where_the_canonical_family_fails_the_gate():
    for n in (3, 6):
        for ratio in helpers.PLANTED_RATIOS:
            ch = Channel.from_kraus(helpers.planted_depolarizing(n, ratio * T))
            assert all(ch.kraus.validate()) != helpers.planted_keep_band(n, ratio), (n, ratio)


def test_classify_refuses_the_mirror_on_its_own_unit_defects(tmp_path, capsys):
    fam = helpers.planted_mirror()
    assert min(fam.unit_defects) > T
    assert Channel.from_kraus(fam).index == 1  # the keep drops √ε·E_01
    with pytest.raises(ValueError, match="unital trace-preserving"):
        classify(fam)
    code = main(["classify", _written(tmp_path, fam), "--json"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=KEEP_BAND)
@pytest.mark.parametrize("n", [3, 6])
def test_analyze_reads_a_planted_channel_in_the_keep_band_as_valid(tmp_path, capsys, n):
    for ratio in _in_band(n):
        path = _written(tmp_path, helpers.planted_depolarizing(n, ratio * T))
        assert main(["analyze", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unital"] and report["trace_preserving"], ratio


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=KEEP_BAND)
@pytest.mark.parametrize("n", [3, 6])
def test_decompose_accepts_a_planted_channel_in_the_keep_band(tmp_path, capsys, n):
    for ratio in _in_band(n):
        path = _written(tmp_path, helpers.planted_depolarizing(n, ratio * T))
        code = main(["decompose", path, "--json"])
        capsys.readouterr()
        assert code == 0, ratio
