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
H(pair).  A layer's statistics come from one pass: each of its vectors is
counted by its own ``bincount`` of (v, y) pairs into one shared buffer, the
plug-in joints, their row and column sums and the integer row sums behind
H(v) are all taken from that buffer, and ``infotheory.entropies`` computes
every entropy in one call, bit for bit equal to ``entropy`` of each.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .dataio import write_text
from .errors import SchemaMismatchError, ValidationError
from .infotheory import ConditionalMatrix, entropies
from .network import (
    DINModel,
    _STREAM_MIFLOW,
    channel_cdf,
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


def _information(vectors, cards, y, n_class, n_h):
    """Plug-in I(v;y) of every vector and H(v) of the first ``n_h``, in bits.

    Vector i takes symbols in ``[0, cards[i])``.  Returns two lists of floats,
    each value equal bit for bit to ``joint_mutual_information`` of the joint
    ``bincount(v * n_class + y) / N`` and to ``entropy(bincount(v) / N)``.
    """
    sizes = [c * n_class for c in cards]
    bounds = [0, *itertools.accumulate(sizes)]
    counts = np.empty(bounds[-1])
    for v, size, lo in zip(vectors, sizes, bounds):
        counts[lo:lo + size] = np.bincount(v * n_class + y, minlength=size)
    joint = counts / y.size
    rows = joint.reshape(-1, n_class).sum(axis=1)  # P(v) of each vector, back to back
    # column sums add a joint's rows in order; stacking joints of one size keeps that order
    cols = np.empty((len(cards), n_class))
    for card in set(cards):
        same = [i for i, c in enumerate(cards) if c == card]
        at = np.array([bounds[i] for i in same])[:, None] + np.arange(card * n_class)
        cols[same] = joint[at].reshape(len(same), card, n_class).sum(axis=1)
    # H(v) from the integer row sums, which are bincount(v) exactly
    h_rows = counts[:bounds[n_h]].reshape(-1, n_class).sum(axis=1) / y.size
    k = len(cards)
    ent = entropies(np.concatenate((rows, cols.ravel(), joint, h_rows)),
                    cards + [n_class] * k + sizes + cards[:n_h])
    mi = ent[:k] + ent[k:2 * k] - ent[2 * k:3 * k]
    mi[mi <= 0] = 0.0  # as joint_mutual_information: rounding can read below 0
    return mi.tolist(), ent[3 * k:].tolist()


def mi_flow(model: DINModel, data: QuantizedDataset) -> MIFlowReport:
    """Re-propagate data through the model and report plug-in MI per node/mux.

    The nodes draw, in walk order, from one generator seeded by the model's
    stored seed, so the report is reproducible for a given model.
    """
    topo = model.topology
    if tuple(data.cardinalities) != topo.cards:
        raise SchemaMismatchError("dataset cardinalities do not match the model")
    y = data.labels
    if y.size == 0:
        raise ValidationError("mi_flow needs at least one row, and the table has none")

    rng = np.random.default_rng([model.seed, _STREAM_MIFLOW])

    def node(layer, pos, symbols):
        table = channel_cdf(model.nodes[(layer, pos)].channel.p)
        return sample_channel(table.take(symbols, axis=1), rng)

    nodes = []
    muxes = []
    below = below_mi = below_h = None  # outputs, I(out;y) and H(out) of the previous layer
    # layer i > 0 is fed by mux stage i - 1 and its inputs are the groups'
    # last-stage outputs, so only the first pair of a 3-way group is muxed here
    stages = ((),) + topo.mux_groups
    for (layer_idx, inputs, outputs), groups in zip(walk(topo, data.columns, node), stages):
        layer = topo.layers[layer_idx]
        cards = topo.layers[layer_idx - 1].n_out if layer_idx else ()
        triples = [g for g in groups if len(g) == 3]
        pairs = [mux_combine([below[a], below[b]], [cards[a], cards[b]]) for a, b, _ in triples]
        pair_cards = [cards[a] * cards[b] for a, b, _ in triples]
        mi, h = _information(outputs + pairs + inputs,
                             list(layer.n_out) + pair_cards + list(layer.n_in),
                             y, data.n_class, n_h=layer.size + len(pairs))
        mi_out, mi_pair, mi_in = mi[:layer.size], mi[layer.size:-layer.size], mi[-layer.size:]
        h_out, h_pair = h[:layer.size], h[layer.size:]
        nodes.extend(NodeFlow(layer=layer_idx, position=k, mi_in_y=mi_in[k],
                              mi_out_y=mi_out[k], h_out=h_out[k])
                     for k in range(layer.size))
        pair_stats = iter(zip(mi_pair, h_pair))
        for g_idx, g in enumerate(groups):
            i_acc, h_acc = below_mi[g[0]], below_h[g[0]]
            for stage, member in enumerate(g[1:]):
                if stage < len(g) - 2:  # the intermediate pair of a 3-way group
                    i_pair, h_pair = next(pair_stats)
                else:  # the last pair is this layer's input for the group
                    i_pair, h_pair = mi_in[g_idx], None
                i_other, h_other = below_mi[member], below_h[member]
                muxes.append(MuxFlow(
                    layer=layer_idx - 1,
                    position=g_idx,
                    stage=stage,
                    lower_bound=max(i_acc, i_other),
                    observed=i_pair,
                    upper_bound=min(i_acc + h_other, i_other + h_acc),
                ))
                i_acc, h_acc = i_pair, h_pair
        below, below_mi, below_h = outputs, mi_out, h_out
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
