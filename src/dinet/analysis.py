"""Verification oracles and information-flow diagnostics for trained trees.

``compose_full_matrix`` collapses the whole tree into one conditional
matrix from joint quantized input to class, via Kronecker products taken
in the same mixed-radix order the multiplexers use (first input = low
order digit).  ``mi_flow`` walks a dataset up the tree (``network.walk``)
and reports plug-in information estimates per node plus, per multiplexer,
the sandwich

    max(I(a;y), I(b;y)) <= I(mux(a,b);y) <= min(I(a;y)+H(b), I(b;y)+H(a))

which holds exactly for plug-in estimates taken from one sample.
Three-way muxes are checked by chaining two pairwise applications.

Each statistic is computed once per vector: a node's I(out;y) and H(out)
serve its own row and the bounds of the mux it feeds, and a group's last
stage observes the next node's input, whose I(in;y) its row already holds.
Only the intermediate pair of a three-way mux needs its own I(pair;y) and
H(pair).  While the walk is on a layer, one ``bincount`` counts the (v, y)
pairs of all its vectors, so no layer's arrays outlive it.  After the walk
the joints, their row and column sums and the integer row sums behind H(v)
all come from the tree's counts, and one ``infotheory.entropies`` call
takes every entropy, bit for bit equal to ``entropy`` of each.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .dataio import write_text
from .errors import ValidationError
from .infotheory import ConditionalMatrix, entropies
from .network import (
    DINModel,
    _STREAM_MIFLOW,
    _check_alphabets,
    mux_combine,
    sample_channel,
    walk,
)
from .quantizer import QuantizedDataset

DEFAULT_STATE_CAP = 1 << 20


@dataclass(frozen=True)
class NodeFlow:
    layer: int
    position: int
    mi_in_y: float
    mi_out_y: float
    h_out: float


@dataclass(frozen=True)
class MuxFlow:
    layer: int            # layer of the mux inputs
    position: int         # group index within that mux stage
    stage: int            # 0 for pairwise, 0/1 for a chained 3-way mux
    lower_bound: float
    observed: float
    upper_bound: float


@dataclass(frozen=True)
class MIFlowReport:
    nodes: tuple
    muxes: tuple

    def to_csv(self, path) -> None:
        """Write a flat CSV: one row per node or mux, quantities in bits, CRLF row ends."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["kind", "layer", "position", "stage",
                    "mi_in_y", "mi_out_y", "h_out",
                    "lower_bound", "observed", "upper_bound"])
        for n in self.nodes:
            w.writerow(["node", n.layer, n.position, "",
                        repr(n.mi_in_y), repr(n.mi_out_y), repr(n.h_out),
                        "", "", ""])
        for m in self.muxes:
            w.writerow(["mux", m.layer, m.position, m.stage, "", "", "",
                        repr(m.lower_bound), repr(m.observed),
                        repr(m.upper_bound)])
        write_text(path, buf.getvalue())


def compose_full_matrix(model: DINModel, max_states: int = DEFAULT_STATE_CAP) -> ConditionalMatrix:
    """Collapse the tree into one joint-input -> class conditional matrix.

    Row index is the mixed-radix packing of the quantized feature symbols
    (feature 0 = low-order digit); columns are class labels, i.e. the final
    node's outputs permuted by the model's class alignment.
    """
    cards = model.topology.cards
    n_states = int(np.prod([int(c) for c in cards], dtype=object))
    if n_states > max_states:
        raise ValidationError(
            f"joint input space has {n_states} states, above the cap "
            f"{max_states}; raise max_states to force the computation")

    topo = model.topology

    def matrix_for(layer: int, pos: int) -> np.ndarray:
        channel = model.nodes[(layer, pos)].channel.p
        if layer == 0:
            return channel
        group = topo.mux_groups[layer - 1][pos]
        kron = matrix_for(layer - 1, group[0])
        for member in group[1:]:
            # later members are higher-order digits -> left operand of kron
            kron = np.kron(matrix_for(layer - 1, member), kron)
        return kron @ channel

    full = matrix_for(topo.depth, 0)
    aligned = np.empty_like(full)
    for j, cls in enumerate(model.class_alignment):
        aligned[:, cls] = full[:, j]
    return ConditionalMatrix(aligned)


def _joint_counts(vectors, cards, y, n_class):
    """One ``bincount`` of every vector's ``v * n_class + y``, each in its own segment.

    ``vectors`` lists vectors and ``(K, N)`` blocks of them; vector i takes
    symbols in ``[0, cards[i])``, so its segment is ``cards[i] * n_class`` long.
    """
    bounds = [0, *itertools.accumulate(c * n_class for c in cards)]
    # vstack copies, so the arithmetic can be in place
    cells = np.vstack(vectors)
    cells *= n_class
    cells += y
    cells += np.array(bounds[:-1])[:, None]
    return np.bincount(cells.ravel(), minlength=bounds[-1])


def _information(counts, cards, has_h, n_class, n_rows):
    """Plug-in I(v;y) of every vector and H(v) of those ``has_h`` flags, in bits.

    ``counts`` is ``_joint_counts`` output, or several of them concatenated.
    Returns two lists of floats, equal bit for bit to
    ``joint_mutual_information`` of each segment divided by ``n_rows`` and to
    ``entropy(bincount(v) / n_rows)``.
    """
    sizes = [c * n_class for c in cards]
    joint = counts / n_rows
    rows = joint.reshape(-1, n_class).sum(axis=1)  # P(v) of each vector, back to back
    # column sums add a joint's rows in order; stacking joints of one size keeps that order
    starts, card_of = np.cumsum([0, *sizes[:-1]]), np.array(cards)
    cols = np.empty((len(cards), n_class))
    for card in set(cards):
        same = np.flatnonzero(card_of == card)
        at = starts[same, None] + np.arange(card * n_class)
        cols[same] = joint[at].reshape(same.size, card, n_class).sum(axis=1)
    # H(v) from the integer row sums, which are bincount(v) exactly
    h_rows = counts.reshape(-1, n_class).sum(axis=1)[np.repeat(has_h, cards)] / n_rows
    k = len(cards)
    ent = entropies(np.concatenate((rows, cols.ravel(), joint, h_rows)),
                    cards + [n_class] * k + sizes + list(itertools.compress(cards, has_h)))
    mi = ent[:k] + ent[k:2 * k] - ent[2 * k:3 * k]
    mi[mi <= 0] = 0.0  # as joint_mutual_information: rounding can read below 0
    return mi.tolist(), ent[3 * k:].tolist()


def mi_flow(model: DINModel, data: QuantizedDataset) -> MIFlowReport:
    """Re-propagate data through the model and report plug-in MI per node/mux.

    The nodes draw, in walk order, from one generator seeded by the model's
    stored seed, so the report is reproducible for a given model.
    """
    topo = model.topology
    _check_alphabets(data, topo)
    y = data.labels
    if y.size == 0:
        raise ValidationError("mi_flow needs at least one row, and the table has none")

    rng = np.random.default_rng([model.seed, _STREAM_MIFLOW])

    def sample_layer(layer, inputs):
        return sample_channel(model.tables[layer].gather(inputs), rng)

    # layer i > 0 is fed by mux stage i - 1 and its inputs are the groups'
    # last-stage outputs, so only the first pair of a 3-way group is muxed here
    stages = ((),) + topo.mux_groups
    counts, cards, has_h = [], [], []  # each layer's, counted while the walk is on it
    below = r = None  # outputs of the previous layer and their alphabet size
    walked = walk(topo, data.symbols, sample_layer)
    for (layer_idx, inputs, outputs), groups in zip(walked, stages):
        layer = topo.layers[layer_idx]
        pairs = [mux_combine([below[g[0]], below[g[1]]], [r, r]) for g in groups if len(g) == 3]
        layer_cards = [layer.n_out] * layer.size + [r * r for _ in pairs] + list(layer.n_in)
        counts.append(_joint_counts([outputs, *pairs, inputs], layer_cards, y, data.n_class))
        cards += layer_cards
        has_h += [True] * (layer.size + len(pairs)) + [False] * layer.size
        below, r = outputs, layer.n_out
    mi, h = _information(np.concatenate(counts), cards, has_h, data.n_class, y.size)

    nodes, muxes = [], []
    mi, h = iter(mi), iter(h)
    below_mi = below_h = None  # I(out;y) and H(out) of the previous layer
    for layer_idx, (layer, groups) in enumerate(zip(topo.layers, stages)):
        k, n_pair = layer.size, sum(len(g) == 3 for g in groups)
        mi_out, mi_pair, mi_in = (list(itertools.islice(mi, n)) for n in (k, n_pair, k))
        h_out, h_pair = (list(itertools.islice(h, n)) for n in (k, n_pair))
        nodes += (NodeFlow(layer_idx, pos, *v) for pos, v in enumerate(zip(mi_in, mi_out, h_out)))
        pair_stats = iter(zip(mi_pair, h_pair))
        for g_idx, g in enumerate(groups):
            i_acc, h_acc = below_mi[g[0]], below_h[g[0]]
            for stage, member in enumerate(g[1:]):
                if stage < len(g) - 2:  # the intermediate pair of a 3-way group
                    i_pair, h_pair = next(pair_stats)
                else:  # the last pair is this layer's input for the group
                    i_pair, h_pair = mi_in[g_idx], None
                i_other, h_other = below_mi[member], below_h[member]
                muxes.append(MuxFlow(layer=layer_idx - 1, position=g_idx, stage=stage,
                                     lower_bound=max(i_acc, i_other), observed=i_pair,
                                     upper_bound=min(i_acc + h_other, i_other + h_acc)))
                i_acc, h_acc = i_pair, h_pair
        below_mi, below_h = mi_out, h_out
    return MIFlowReport(nodes=tuple(nodes), muxes=tuple(muxes))


def check_bounds(report: MIFlowReport, tol: float = 1e-6):
    """Violations of the mux sandwich, empty when every mux is inside it."""
    out = []
    for m in report.muxes:
        if m.observed < m.lower_bound - tol:
            out.append(
                f"mux layer={m.layer} pos={m.position} stage={m.stage}: observed "
                f"{m.observed:.9f} below lower bound {m.lower_bound:.9f}")
        if m.observed > m.upper_bound + tol:
            out.append(
                f"mux layer={m.layer} pos={m.position} stage={m.stage}: observed "
                f"{m.observed:.9f} above upper bound {m.upper_bound:.9f}")
    return out
