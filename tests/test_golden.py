"""Report bytes pinned across commits.

The SHA-256 digests below were recorded from the ``solve`` and ``verify``
reports of small generated games before the certificate and window-family
code was consolidated.  A refactor that keeps every certified number must
keep these bytes; a deliberate report change updates the digests and says so.
"""

from __future__ import annotations

import hashlib

import pytest

from stopgame.cli import main
from stopgame.gamefile import parse_game

# (seed, players, outcomes, times, solve at --h = minimal grid step):
# (solve report digest, verify report digest)
GOLDEN = {
    (5, 2, 2, 3, False): (
        "58adbda8ef8228306f00b41c269d583c5e68b7073ea2b878f52f2454a05ad4e6",
        "40d6b23add66ff8a3aeb6ed9b4e95482b568b58ebd59891bc663767007f394bb",
    ),
    (8, 2, 3, 5, False): (
        "5db4faed7e89e529b1d9842f7315d884ea659ac5a4a3158d4ab4ba910939bd95",
        "63c69fec3d255d7430017149e7ce94aafbb889593b7677136893f9fe05218844",
    ),
    (9, 3, 2, 3, False): (
        "c5b7e4587a81b2ca2c1cd618399d9f1a164de192b7b4284a193e92fc2ca1cfeb",
        "79e2703dab074c0c9b8a0d02839c7983a950f3dd6bf12f1d1eed6010c41d5199",
    ),
    (33, 3, 3, 4, False): (
        "d8d8b7865a4ce1d19637173a30ed12cefb1f50bb5e4bb9f977eb92daf8a18387",
        "82768c8b7e554db6811857fdd51ac6b8e1f9c6b27e825fcb9abccbbc96e0b0c9",
    ),
    (6, 3, 2, 4, True): (
        "039b20ce28c49ad64ac2cd91d6a59a2b6f4c16a3c18941e523822d2562f4a242",
        "00c8e94f17789079005d86c3c7ad5ca26ea7e269cdeefc7cd52c496fef2fffee",
    ),
    (12, 3, 3, 4, True): (
        "8afdd2a67ddcf3c6f0e265791af66ba01b4beeb909dae341e70caadea6552533",
        "b8375c3724b22b9a445445357d252db9f17b97edadc2e947d4e14184f90b89d6",
    ),
    # recorded before the stop-now and single-optimizer solutions got one
    # owner per seat: auto h spans the whole grid, so every window holds
    # all five grid points
    (2, 3, 3, 5, False): (
        "7b0945e8f64169db95c741d0e3f919f6234dfef32dfd87403f662008508b3f05",
        "1d85020b2fefd5ada4335a341635678956d78cd9668a021ddc5569fb5d73bb7f",
    ),
    (3, 3, 4, 5, True): (
        "b19169c3f08ebc2ae6851ffaa2d319c4d9dd6174659e16d403f8c7fb6c80e8d1",
        "12892ab7c1d527a57b756a9ce3bc98853145dd166f6cd2f536e9ed836876d659",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "s{}-p{}-{}x{}-{}".format(
    *c[:4], "minh" if c[4] else "autoh"))
def test_report_bytes_match_golden(case, tmp_path):
    seed, players, outcomes, times, min_step_h = case
    game, rep, ver = tmp_path / "game.json", tmp_path / "solve.json", tmp_path / "verify.json"
    assert main(
        ["gen", "--seed", str(seed), "--players", str(players), "--outcomes", str(outcomes),
         "--times", str(times), "--out", str(game)]
    ) == 0
    extra = []
    if min_step_h:
        extra = ["--h", str(parse_game(game.read_text()).space.grid.min_step)]
    assert main(["solve", "--game", str(game), "--out", str(rep), *extra]) == 0
    assert main(["verify", "--game", str(game), "--profile", str(rep), "--out", str(ver)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (rep, ver))
    assert digests == GOLDEN[case]
