import traceback
from random import Random

import pytest

from localekit import cli
from localekit.common import BUDGETS, BudgetExceeded, pack_rows, settled, unpack_rows
from localekit.corpus import chain
from localekit.lattice import order_closure, regular_pair_frame, validate_frame
from localekit.spaces import indiscrete, uc_lattice


@pytest.mark.parametrize("n", [0, 1, 8, 64, 65, 130])
def test_pack_unpack_round_trip(n):
    rng = Random(n)
    masks = (0, (1 << n) - 1) + tuple(rng.getrandbits(n) for _ in range(20))
    rows = unpack_rows(iter(masks), n)
    assert rows.shape == (len(masks), n) and rows.dtype == bool
    assert rows.tolist() == [[bool(m >> k & 1) for k in range(n)] for m in masks]
    assert pack_rows(rows) == masks
    assert unpack_rows((), n).shape == (0, n)


def test_settled_raises_a_stored_error_afresh():
    stored = AssertionError("stored")
    depths = []
    for _ in range(3):  # as when several checks of one item ask for it
        with pytest.raises(AssertionError) as err:
            settled(stored)
        assert err.value is stored
        depths.append(len(traceback.extract_tb(err.value.__traceback__)))
    assert depths == [depths[0]] * 3
    assert settled("result") == "result"


def _chain_text(n):
    return f"lattice {n}\n" + "".join(f"{i} < {i + 1}\n" for i in range(n - 1))


# site: (bound, size, limit, argv, input file text). A limit of None is the
# bound's default; the corpus and topology sites run under --budget 2, since
# one past their defaults the run that must then pass takes minutes.
CLI_SITES = {
    "io.load_lattice_text": ("frame", 65, None, ["check-frame"], _chain_text(65)),
    "io.load_space_text": ("space", 9, None, ["spaces", "check"], "space 9\n"),
    "sublocales.all_sublocales": ("primes", 11, None, ["sublocales"], _chain_text(12)),
    "spaces.enumerate_topologies": ("topology", 3, 2, ["spaces", "enumerate", "--n", "3"], None),
    "cli._campaign_lattices": ("corpus", 3, 2, ["campaign", "lattices", "--max-size", "3"], None),
}
# site: (bound, size, call with a budget), for sites no flag reaches.
DIRECT_SITES = {
    "lattice.validate_frame": ("frame", 65, lambda budget: validate_frame(
        order_closure(65, [(i, i + 1) for i in range(64)]), max_size=budget)),
    "spaces.uc_lattice": ("space", 9, lambda budget: uc_lattice(indiscrete(9), budget)),
    # chain(64) has 65 pairs (a, b) with a <= b regular
    "lattice.regular_pair_frame": ("frame", 65, lambda budget: regular_pair_frame(chain(64),
                                                                                 budget)),
}


@pytest.mark.parametrize("site", [*CLI_SITES, *DIRECT_SITES])
def test_every_raise_site_names_its_budget(tmp_path, capsys, site):
    if site in CLI_SITES:
        bound, size, limit, argv, text = CLI_SITES[site]
        if text is not None:
            path = tmp_path / "input"
            path.write_text(text)
            argv = argv + [str(path)]
        assert cli.main(([] if limit is None else ["--budget", str(limit)]) + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("\n")
        message = err[len("error: "):-1]
        assert cli.main(["--budget", str(size)] + argv) != 2
    else:
        bound, size, call = DIRECT_SITES[site]
        limit = None
        with pytest.raises(BudgetExceeded) as exc:
            call(None)
        message = str(exc.value)
        call(size)
    default, template = BUDGETS[bound]
    assert message == template.format(size=size, limit=default if limit is None else limit)
    assert bound in message and "--budget" in message
