import hashlib
import json
from math import gcd

import pytest

from conftest import FINITE_CLUSTER_1, FINITE_CLUSTER_2_TRIADS, INFINITE_CLUSTER_TRIADS
from rossby_resonance.cluster_graph import (
    NO_SCALING_DETECTED,
    SCALING_FAMILY_DETECTED,
    Cluster,
    build_components,
    clusters_to_json,
    flag_scaling,
    order_clusters,
)
from rossby_resonance.exact_core import ResonantTriad, Wavenumber, sign_class


def _triad(triple):
    return ResonantTriad(*triple)


OMEGA1_TRIAD = _triad(FINITE_CLUSTER_1)
OMEGA2_TRIADS = [_triad(t) for t in FINITE_CLUSTER_2_TRIADS]

# sha256 of clusters_to_json(build_components(enumerate_lambda(35).triads), 35)
BOX35_CLUSTERS_SHA256 = "82c2f66dfdc62c766152495a5c5062fef424ed2bcd3df24f286624b590fb088b"
# sha256 of clusters_to_json(build_components(enumerate_lambda(60).triads), 60)
BOX60_CLUSTERS_SHA256 = "fb3daaf275c43c65949bc83460e93d354faf8d66a1c739a1a49b2c503834dcdb"


class TestSignClass:
    def test_normalizes_to_positive_zonal(self):
        assert sign_class((-8, 34)) == Wavenumber(8, -34)
        assert sign_class((8, -34)) == Wavenumber(8, -34)
        assert sign_class((-8, 34)) == sign_class((8, -34))

    def test_rejects_zero_zonal(self):
        with pytest.raises(ValueError):
            sign_class((0, 4))

    def test_hashable_and_sortable(self):
        classes = {sign_class((1, 11)), sign_class((-1, -11)), sign_class((3, 19))}
        assert len(classes) == 2
        assert sorted(classes)[0] == Wavenumber(1, 11)


class TestBuildComponents:
    def test_two_known_clusters(self):
        comps = build_components([OMEGA1_TRIAD] + OMEGA2_TRIADS)
        assert [len(c.members) for c in comps] == [3, 5]
        first, second = comps
        assert first.members == {
            Wavenumber(1, 11),
            Wavenumber(8, -34),
            Wavenumber(9, -23),
        }
        assert second.members == {
            Wavenumber(3, 19),
            Wavenumber(32, -44),
            Wavenumber(35, -25),
            Wavenumber(8, 26),
            Wavenumber(27, -51),
        }
        assert first.lambda_seq == (122, 610, 1220)
        assert second.lambda_seq == (370, 740, 1850, 2960, 3330)
        assert first.triads == frozenset([OMEGA1_TRIAD])
        assert second.triads == frozenset(OMEGA2_TRIADS)

    def test_single_triad_component(self):
        comps = build_components([_triad(INFINITE_CLUSTER_TRIADS[0])])
        assert len(comps) == 1
        assert len(comps[0].members) == 3

    def test_empty_input(self):
        assert build_components([]) == []

    def test_accepts_raw_triples(self):
        comps = build_components([FINITE_CLUSTER_1])
        assert len(comps) == 1

    def test_rejects_malformed_triples(self):
        with pytest.raises(ValueError):
            build_components([((1, 1), (2, 2), (3, 3))])

    def test_components_partition_the_classes(self, report60):
        report, _ = report60
        comps = build_components(report.triads)
        seen = set()
        for c in comps:
            assert not (c.members & seen)
            seen |= c.members
        all_classes = {sign_class(w) for t in report.triads for w in t}
        assert seen == all_classes

    def test_rebuild_is_idempotent(self, report60):
        report, _ = report60
        comps = build_components(report.triads)
        rebuilt = build_components([t for c in comps for t in c.triads])
        assert rebuilt == comps


# Eleven triads of one of the two largest box-995 clusters, a mirror pair of
# 37 triads each; they close a cycle through the triad whose smallest member
# is (195, -975). No triad is primitive, but the cycle is no multiple of a
# smaller one: the gcd of all its components is 1.
CYCLE_TRIADS = (
    ((-1248, 156), (195, -975), (1053, 819)),
    ((-1248, 156), (234, 858), (1014, -1014)),
    ((-832, 104), (130, -650), (702, 546)),
    ((-720, -300), (18, -246), (702, 546)),
    ((-720, -300), (234, 858), (486, -558)),
    ((-416, 52), (65, -325), (351, 273)),
    ((-416, 52), (78, 286), (338, -338)),
    ((-360, -150), (9, -123), (351, 273)),
    ((-360, -150), (117, 429), (243, -279)),
    ((-312, 546), (117, 429), (195, -975)),
    ((-208, 364), (78, 286), (130, -650)),
)


class TestBergeCycle:
    """The triads form one Berge cycle of the triad hypergraph on sign
    classes: a hypertree of T triads spans 2T + 1 classes, so its cycle rank
    2T + 1 - (sign classes) is 0, and this cluster's is 1."""

    def test_each_triad_is_resonant(self):
        # the constructor refuses a triple that is not resonant
        for triple in CYCLE_TRIADS:
            assert {sign_class(m) for m in ResonantTriad(*triple)} == {sign_class(m) for m in triple}

    def test_each_triad_meets_two_others_in_one_class_each(self):
        classes = [{sign_class(m) for m in _triad(t)} for t in CYCLE_TRIADS]
        for i, own in enumerate(classes):
            shared = [len(own & other) for j, other in enumerate(classes) if j != i]
            assert sorted(c for c in shared if c) == [1, 1]

    def test_one_connected_cluster_of_cycle_rank_one(self):
        triads = [_triad(t) for t in CYCLE_TRIADS]
        (cluster,) = build_components(triads)
        assert cluster.triads == frozenset(triads)
        assert len(cluster.members) == 22
        assert 2 * len(triads) + 1 - len(cluster.members) == 1
        assert gcd(*(c for t in CYCLE_TRIADS for m in t for c in m)) == 1


class TestOrderClusters:
    def test_known_order(self):
        comps = build_components(OMEGA2_TRIADS + [OMEGA1_TRIAD])
        assert comps[0].lambda_seq[0] == 122
        assert comps[1].lambda_seq[0] == 370

    def test_mirror_tie_broken_by_smallest_member(self):
        mirrored = OMEGA1_TRIAD.mirrored()
        comps = build_components([OMEGA1_TRIAD, mirrored])
        assert len(comps) == 2
        assert comps[0].lambda_seq == comps[1].lambda_seq
        assert min(comps[0].members) < min(comps[1].members)

    def test_permutation_invariance(self):
        triads = [OMEGA1_TRIAD] + OMEGA2_TRIADS + [_triad(t) for t in INFINITE_CLUSTER_TRIADS]
        a = build_components(triads)
        b = build_components(list(reversed(triads)))
        assert a == b

    def test_single_cluster(self):
        comps = build_components([OMEGA1_TRIAD])
        assert order_clusters(comps) == comps


class TestFlagScaling:
    def test_detects_integer_multiple(self):
        cluster = Cluster(
            members=frozenset({sign_class((16, 2)), sign_class((-32, -4))}),
            triads=frozenset(),
            lambda_seq=(260, 1040),
        )
        assert flag_scaling(cluster) == SCALING_FAMILY_DETECTED

    def test_known_finite_cluster_shows_none(self):
        comps = build_components([OMEGA1_TRIAD])
        assert flag_scaling(comps[0]) == NO_SCALING_DETECTED

    def test_empty_cluster(self):
        empty = Cluster(members=frozenset(), triads=frozenset(), lambda_seq=())
        assert flag_scaling(empty) == NO_SCALING_DETECTED

    def test_non_multiple_pairs_ignored(self):
        cluster = Cluster(
            members=frozenset({sign_class((2, 3)), sign_class((4, 5))}),
            triads=frozenset(),
            lambda_seq=(13, 41),
        )
        assert flag_scaling(cluster) == NO_SCALING_DETECTED


class TestClusterReport:
    def test_document_shape(self):
        doc = json.loads(clusters_to_json(build_components([OMEGA1_TRIAD]), 60))
        assert doc["schema"] == 1
        assert doc["max_norm"] == 60
        assert "truncation_note" in doc
        (cluster,) = doc["clusters"]
        assert cluster["members"] == [[1, 11], [8, -34], [9, -23]]
        assert cluster["lambda_seq"] == [122, 610, 1220]
        assert cluster["scaling_flag"] == NO_SCALING_DETECTED
        assert cluster["triads"] == [[[-9, 23], [1, 11], [8, -34]]]

    def test_deterministic(self):
        triads = [OMEGA1_TRIAD] + OMEGA2_TRIADS
        assert clusters_to_json(build_components(triads), 60) == clusters_to_json(
            build_components(list(reversed(triads))), 60
        )

    @pytest.mark.parametrize("order", ["enumerated", "reversed"])
    def test_box35_document_is_pinned(self, order, report35):
        triads = list(report35.triads)
        if order == "reversed":
            triads.reverse()
        doc = clusters_to_json(build_components(triads), 35)
        assert hashlib.sha256(doc.encode()).hexdigest() == BOX35_CLUSTERS_SHA256

    def test_box60_document_is_pinned(self, report60):
        report, _ = report60
        doc = clusters_to_json(build_components(report.triads), 60)
        assert hashlib.sha256(doc.encode()).hexdigest() == BOX60_CLUSTERS_SHA256
