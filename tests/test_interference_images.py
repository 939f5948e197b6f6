"""Every family names, per receiver k, the transmitter whose image spans k's
interference once the relations hold (``Family.interference_image``), and
the receiver pass takes k's complement from that image alone. The name must
be backed by the family's own relations at k: every other interferer is
tied to the named one by equality or span relations at k, or lies in its
pool through a subset relation. Read from ``relations(K, n)`` only; nothing
is built.
"""

import pytest

from ia_lab.errors import ParameterError
from ia_lab.families import FAMILIES

# the transmitters whose image several receivers carry, which the build
# decomposes once per stack
SHARED = {"siso-k3": (0,), "siso-general": (0,), "mimo": (), "designed": ()}


def accepted(family):
    """The K in 3..6 the family accepts at its default M."""
    out = []
    for K in range(3, 7):
        try:
            family.check(K, family.default_M)
        except ParameterError:
            continue
        out.append(K)
    return out


def tied(relations, k, j):
    """The transmitters that equality and span relations at receiver k tie
    to transmitter j, j included, one relation after another."""
    out, grew = {j}, True
    while grew:
        grew = False
        for kind, m, _, left, right, _ in relations:
            if m == k and kind in ("equality", "span") and (left in out) != (right in out):
                out |= {left, right}
                grew = True
    return out


@pytest.mark.parametrize("name", list(FAMILIES))
def test_every_named_image_is_backed_by_the_relations(name):
    family = FAMILIES[name]
    assert accepted(family)
    for K in accepted(family):
        # n=1 keeps siso-general's maps at one column for every K
        relations = list(family.relations(K, 1))
        image = family.interference_image(K)
        assert len(image) == K
        for k, j in enumerate(image):
            assert j != k and 0 <= j < K
            within = tied(relations, k, j)
            pooled = {left for kind, m, _, left, right, _ in relations
                      if m == k and kind == "subset" and right in within}
            assert set(range(K)) - {k} <= within | pooled, (K, k)
        assert family.shared_images(K) == SHARED[name]
        assert SHARED[name] == tuple(j for j in range(K) if image.count(j) > 1)
