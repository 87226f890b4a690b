"""The law-suite generators: finite grids of rows and their orders."""

import itertools

from sill import domain as D
from sill import laws as L
from sill import semantics as S


def pairwise_grid(aspects, depth: int) -> L.FinGrid:
    """The reference grid: compare every pair of rows with ``row_leq``,
    then sort the rows into the linear extension by (#preds, index)."""
    keys = tuple(sorted(aspects))
    rows = list(S.row_grid(aspects, depth))
    n = len(rows)
    leq = [[S.row_leq(rows[i], rows[j]) for j in range(n)] for i in range(n)]
    preds = [[j for j in range(n) if j != i and leq[j][i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(preds[i]), i))
    remap = {old: new for new, old in enumerate(order)}
    upsets = []
    for i in order:
        mask = 0
        for j in range(n):
            if leq[i][j]:
                mask |= 1 << remap[j]
        upsets.append(mask)
    return L.FinGrid(keys, [rows[i] for i in order],
                     [[remap[j] for j in preds[i]] for i in order], upsets)


def test_grid_for_equals_the_pairwise_grid():
    battery = L.aspect_battery(2)
    small = [asp for asp, n in battery if n <= 3]
    cases = [asp_list for k in (1, 2)
             for asp_list in itertools.product([asp for asp, _ in battery], repeat=k)]
    cases += list(itertools.product(small, repeat=3))
    for asp_list in cases:
        aspects = dict(zip("abc", asp_list))
        got, want = L.grid_for(aspects, 2), pairwise_grid(aspects, 2)
        assert got.keys == want.keys
        assert got.rows == want.rows, asp_list
        assert got.preds == want.preds, asp_list
        assert got.upsets == want.upsets, asp_list


def test_grid_compares_values_not_rows(monkeypatch):
    """Building a grid costs D.leq calls on each aspect's values, not on
    every pair of rows."""
    five = [asp for asp, n in L.aspect_battery(2) if n == 5][:3]
    assert len(five) == 3
    L._grid_cached.cache_clear()
    L._aspect_order.cache_clear()
    calls = 0
    real_leq = D.leq

    def counting_leq(v, w):
        nonlocal calls
        calls += 1
        return real_leq(v, w)

    monkeypatch.setattr(D, "leq", counting_leq)
    grid = L.grid_for(dict(zip("abc", five)), 2)
    assert len(grid.rows) == 125
    assert calls <= 2 * 3 * 5 ** 2  # pairwise rows would take 125 ** 2
