"""Connected components of the resonance graph over sign-classes.

Nodes are sign-classes {n, -n}, each the Wavenumber sign_class(n) with
n1 > 0 (the dispersion surrogate is odd in n, so a wavenumber resonates
exactly when its negation does); each triad contributes a 3-clique.
Components from a finite enumeration box may split clusters that are only
connected through triads outside the box, so every report carries the box
bound and a truncation disclaimer.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

from .exact_core import ResonantTriad, Wavenumber, sign_class

SCALING_FAMILY_DETECTED = "scaling-family-detected"
NO_SCALING_DETECTED = "no-scaling-detected"

TRUNCATION_NOTE = (
    "components reflect only triads discovered inside the enumeration box; "
    "clusters may gain members or merge when the box grows"
)


class Cluster(NamedTuple):
    """One connected component: members, inducing triads, norm signature.

    members are sign classes, each held as its sign_class (n1 > 0).
    lambda_seq is the ascending list of distinct squared norms of the
    members; it is the primary sort key between clusters.
    """

    members: frozenset[Wavenumber]
    triads: frozenset[ResonantTriad]
    lambda_seq: tuple[int, ...]


def build_components(triads: Iterable[ResonantTriad]) -> list[Cluster]:
    """Connected components of the triad 3-clique graph, in canonical order."""
    parent: dict[Wavenumber, Wavenumber] = {}

    def find(w: Wavenumber) -> Wavenumber:
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    edges = []
    for triad in triads:
        if not isinstance(triad, ResonantTriad):
            triad = ResonantTriad(*triad)
        classes = [sign_class(m) for m in triad]
        edges.append((triad, classes))
        for w in classes:
            parent.setdefault(w, w)
        root = find(classes[0])
        for w in classes[1:]:
            parent[find(w)] = root

    components: dict = {}
    for triad, classes in edges:
        members, triad_set = components.setdefault(find(classes[0]), (set(), set()))
        members.update(classes)
        triad_set.add(triad)
    return order_clusters([
        Cluster(
            members=frozenset(members),
            triads=frozenset(triad_set),
            lambda_seq=tuple(sorted({w.norm2() for w in members})),
        )
        for members, triad_set in components.values()
    ])


def order_clusters(clusters: list[Cluster]) -> list[Cluster]:
    """Sort by lambda_seq lexicographically; ties fall back to the sorted members.

    The tie-break makes the order total: mirror-image clusters share a norm
    signature but never a member set.
    """
    return sorted(clusters, key=lambda c: (c.lambda_seq, tuple(sorted(c.members))))


def flag_scaling(cluster: Cluster) -> str:
    """Heuristic witness of an infinite scaling family inside a cluster.

    Detected when some member is an integer multiple (factor >= 2) of
    another. A positive flag witnesses infinitude of the ambient cluster in
    the unbounded lattice; a negative flag proves nothing.
    """
    members = sorted(cluster.members)
    for i, small in enumerate(members):
        for big in members[i + 1:]:
            if big.n1 % small.n1 == 0:
                j = big.n1 // small.n1
                if j >= 2 and big.n2 == j * small.n2:
                    return SCALING_FAMILY_DETECTED
    return NO_SCALING_DETECTED


def clusters_to_json(clusters: list[Cluster], max_norm: int | None) -> str:
    """Cluster report document; deterministic member/triad ordering."""
    doc = {
        "schema": 1,
        "max_norm": max_norm,
        "truncation_note": TRUNCATION_NOTE,
        "clusters": [
            {
                "members": sorted(cluster.members),
                "lambda_seq": list(cluster.lambda_seq),
                "triads": sorted(cluster.triads),
                "scaling_flag": flag_scaling(cluster),
            }
            for cluster in clusters
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
