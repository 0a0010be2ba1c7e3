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
H(pair).  Each vector is counted once: one ``bincount`` of its pairs with the
label is the plug-in joint, whose marginals give I(v;y) and whose integer row
sums give H(v).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .dataio import write_text
from .errors import SchemaMismatchError, ValidationError
from .infotheory import ConditionalMatrix, entropy, joint_mutual_information
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


def mi_flow(model: DINModel, data: QuantizedDataset) -> MIFlowReport:
    """Re-propagate data through the model and report plug-in MI per node/mux.

    The nodes draw, in walk order, from one generator seeded by the model's
    stored seed, so the report is reproducible for a given model.
    """
    topo = model.topology
    if tuple(data.cardinalities) != topo.cards:
        raise SchemaMismatchError("dataset cardinalities do not match the model")
    y = data.labels
    card_y = data.n_class

    def count(v, card):
        """The pairs (v, y) counted by one bincount, one row per symbol of v."""
        counts = np.bincount(v * card_y + y, minlength=card * card_y)
        return counts.reshape(card, card_y).astype(np.float64)

    def mi_y(counts):
        """Plug-in I(v;y) in bits; the joint is counts / N."""
        return joint_mutual_information(counts / y.size)

    def h(counts):
        """Plug-in H(v) in bits; the row sums are bincount(v) exactly."""
        return entropy(counts.sum(axis=1) / y.size)

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
        mi_in = [mi_y(count(v, card)) for v, card in zip(inputs, layer.n_in)]
        out_counts = [count(v, card) for v, card in zip(outputs, layer.n_out)]
        mi_out = [mi_y(c) for c in out_counts]
        h_out = [h(c) for c in out_counts]
        nodes.extend(NodeFlow(layer=layer_idx, position=k, mi_in_y=mi_in[k],
                              mi_out_y=mi_out[k], h_out=h_out[k])
                     for k in range(layer.size))
        for g_idx, g in enumerate(groups):
            cards = topo.layers[layer_idx - 1].n_out
            acc, acc_card, i_acc, h_acc = below[g[0]], cards[g[0]], below_mi[g[0]], below_h[g[0]]
            for stage, member in enumerate(g[1:]):
                pair_card = acc_card * cards[member]
                if stage < len(g) - 2:  # the intermediate pair of a 3-way group
                    pair = mux_combine([acc, below[member]], [acc_card, cards[member]])
                    pair_counts = count(pair, pair_card)
                    i_pair, h_pair = mi_y(pair_counts), h(pair_counts)
                else:  # the last pair is this layer's input for the group
                    pair, i_pair, h_pair = inputs[g_idx], mi_in[g_idx], None
                i_other, h_other = below_mi[member], below_h[member]
                muxes.append(MuxFlow(
                    layer=layer_idx - 1,
                    position=g_idx,
                    stage=stage,
                    lower_bound=max(i_acc, i_other),
                    observed=i_pair,
                    upper_bound=min(i_acc + h_other, i_other + h_acc),
                ))
                acc, acc_card, i_acc, h_acc = pair, pair_card, i_pair, h_pair
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
