"""Layered tree of compression nodes joined by lossless multiplexers.

Layer 0 holds one node per feature.  Adjacent node outputs are merged two
at a time by mixed-radix multiplexers (an odd layer ends with one 3-way
merge) and the column count shrinks until a single node remains, whose
output alphabet is the class alphabet.  ``Topology(cards, n_out)`` is the
one way to build a tree: the layer-0 alphabets and one output alphabet per
layer fix it, and its layer shapes and mux groups are derived from them.
Layers train in order: each node solves its own bottleneck problem against
the target, then stochastically emits the symbol stream the next layer
trains on.  The model keeps each node as ``solve_ib`` returned it, an
``IBSolution`` of channel and diagnostics.

A node below the final layer whose output alphabet can hold its input
(``n_in <= n_out``) has nothing to compress and keeps its input, as a mux
does: its channel is the identity embedding and its diagnostics read 0
iterations.  Compressing it could only lose information, and a feature that
is irrelevant on its own (the two inputs of an xor) would collapse to noise
before the node that combines it with its sibling sees it.  The final node
always solves its bottleneck, since its outputs must be aligned to classes.

``walk`` is the one loop that moves symbols up the tree, a layer at a
time: a layer's inputs and outputs are each one ``(K, N)`` array, K nodes
by N rows.  Its consumers differ only in the per-layer hook: training
solves each node and samples the layer on the training stream, prediction
and ``analysis.mi_flow`` sample on their own.  Inputs are int64; outputs
stay in the narrow unsigned type ``sample_channel`` counts in, and the walk
packs them by Horner's rule straight into the next layer's int64 inputs.

Sampling is a gather and a draw.  A layer's ``LayerTable`` holds its nodes'
``channel_cdf`` tables side by side, built once per trained layer and once
per loaded model and never saved; ``LayerTable.gather`` takes the
thresholds of each input symbol, and ``sample_channel`` draws one uniform
per symbol.  Every ensemble repeat feeds layer 0 the same columns, so
prediction gathers the layer-0 thresholds once for all repeats.  An
ensemble row leaves the walk once no remaining pass can change its
majority, and later passes walk the open rows only.

Each sampling call draws from one generator, ``default_rng([seed,
purpose])``, consumed in walk order: layer after layer, node after node
within a layer, and in an ensemble pass after pass.  A pass with settled
rows still draws for every row and keeps the open rows' draws, and the
draws of passes that no row needs are skipped by advancing the generator,
so the open rows see the uniforms they would see if every row were walked.
So training, prediction and ``mi_flow`` are reproducible and never share
draws.  The solver's start seeds come from ``derive_seed``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigError, SchemaMismatchError, ValidationError
from .ib import DEFAULT_MAX_ITER, DEFAULT_TOL, IBProblem, estimate_empirical, posteriors, solve_ib
from .quantizer import QuantizedDataset, quantize_with

# stream purposes for seed derivation
_STREAM_IB = 1
_STREAM_TRAIN_SAMPLE = 2
_STREAM_PREDICT = 3
_STREAM_MIFLOW = 4


def derive_seed(*parts: int) -> int:
    """Deterministically hash integer key parts into a fresh solver seed."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# topology

@dataclass(frozen=True)
class LayerSpec:
    n_in: tuple          # per-node input cardinality
    n_out: int           # output cardinality of every node of the layer

    @property
    def size(self) -> int:
        return len(self.n_in)


@dataclass(frozen=True)
class Topology:
    """The standard tree over features of alphabet sizes ``cards``.

    Every node of layer i outputs ``n_out[i]`` symbols; the last entry is
    the class count.  ``layers`` and ``mux_groups`` are derived from these
    two inputs: ``mux_groups[i][k]`` lists the layer-i node indices whose
    outputs are combined into the input of node k at layer i+1 (first
    member is the low-order digit), and that input's alphabet is the
    product of theirs.
    """

    cards: tuple         # layer-0 input cardinality, one per feature
    n_out: tuple         # output cardinality of every node of each layer
    layers: tuple = field(init=False, repr=False, compare=False)
    mux_groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cards = tuple(int(c) for c in self.cards)
        n_out = tuple(int(v) for v in self.n_out)
        if not cards:
            raise ConfigError("need at least one feature, got 0")
        if any(c < 1 for c in cards):
            raise ConfigError("feature cardinalities must be >= 1")
        sizes = tree_layer_sizes(len(cards))
        if len(n_out) != len(sizes):
            raise ConfigError(
                f"n_out has {len(n_out)} entries but this tree has "
                f"{len(sizes)} layers (sizes {list(sizes)})")
        if any(v < 1 for v in n_out):
            raise ConfigError("n_out values must be >= 1")

        mux_groups = tuple(_group_layer(size) for size in sizes[:-1])
        layers = (LayerSpec(n_in=cards, n_out=n_out[0]),) + tuple(
            LayerSpec(n_in=tuple(r ** len(g) for g in groups), n_out=v)
            for r, v, groups in zip(n_out, n_out[1:], mux_groups))
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "n_out", n_out)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "mux_groups", mux_groups)

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    @property
    def layer_sizes(self) -> tuple:
        return tuple(layer.size for layer in self.layers)

    @property
    def slots(self) -> tuple:
        """Every node's (layer, position), in walk order."""
        return tuple((i, k) for i, size in enumerate(self.layer_sizes) for k in range(size))

    @property
    def n_class(self) -> int:
        return self.n_out[-1]


def _group_layer(size: int):
    """Pair adjacent nodes; an odd layer (>1) ends with one arity-3 group."""
    if size % 2 == 0:
        return tuple(tuple(range(2 * k, 2 * k + 2)) for k in range(size // 2))
    groups = [tuple(range(2 * k, 2 * k + 2)) for k in range(size // 2 - 1)]
    groups.append((size - 3, size - 2, size - 1))
    return tuple(groups)


def tree_layer_sizes(D: int) -> tuple:
    """Node count of each layer of the standard tree for D features."""
    sizes = [D]
    while sizes[-1] > 1:
        sizes.append(len(_group_layer(sizes[-1])))
    return tuple(sizes)


# ---------------------------------------------------------------------------
# multiplexers

def mux_combine(inputs, radices) -> np.ndarray:
    """Losslessly pack parallel symbol arrays into one mixed-radix array.

    The first input is the low-order digit: out = v0 + r0*v1 + r0*r1*v2 + ...
    Every symbol must lie in ``[0, r)`` of its radix.  Inputs of any one
    shape are packed elementwise, so a layer's groups pack in one call.
    """
    if len(inputs) != len(radices):
        raise ValidationError("need one radix per input vector")
    if len(inputs) < 2:
        raise ValidationError("a multiplexer combines at least two inputs")
    vecs = [np.asarray(v, dtype=np.int64) for v in inputs]
    shape = vecs[0].shape
    for v, r in zip(vecs, radices):
        if v.shape != shape:
            raise ValidationError("input arrays must share one shape")
        # viewed unsigned, a negative symbol is >= 2**63: one scan checks both ends
        if v.size and v.view(np.uint64).max() >= r:
            raise ValidationError(f"symbol outside [0, {r})")
    return _pack(vecs, radices, np.empty(shape, dtype=np.int64))


def _pack(digits, radices, out) -> np.ndarray:
    """Pack in-range digits into the int64 array ``out`` and return it, unchecked.

    Horner's rule, v0 + r0*(v1 + r1*(v2 + ...)).  It runs in the narrowest
    integer type that holds the digits, every radix and every packed value
    (each partial sum is at most the packed value), so ``uint8`` samples
    pack as ``uint8`` and are widened in one copy into ``out``; int64 digits
    pack in ``out`` itself.  Digits are read where they lie, in any layout.
    """
    radices = [int(r) for r in radices]
    top = max(math.prod(radices) - 1, *radices)
    kind = np.result_type(*digits, np.min_scalar_type(top))
    # no narrower integer type (int64 and uint64 promote to float64): pack in ``out``
    narrow = kind.kind in "iu" and kind.itemsize < out.itemsize
    acc = np.empty(out.shape, kind) if narrow else out
    np.copyto(acc, digits[-1])
    for v, r in zip(digits[-2::-1], radices[-2::-1]):
        acc *= r
        acc += v
    if acc is not out:
        np.copyto(out, acc)
    return out


def mux_split(symbols, radices):
    """Inverse of mux_combine: recover the digit vectors."""
    s = np.asarray(symbols, dtype=np.int64)
    total = int(np.prod([int(r) for r in radices]))
    if s.size and (s.min() < 0 or s.max() >= total):
        raise ValidationError(f"symbol outside [0, {total})")
    out = []
    for r in radices:
        out.append(s % int(r))
        s = s // int(r)
    return out


# ---------------------------------------------------------------------------
# trained model

@dataclass(frozen=True)
class DINModel:
    topology: Topology
    nodes: dict              # (layer, position) -> the node's IBSolution
    quantizers: tuple        # FeatureSpec per layer-0 node, () when trained on symbols
    feature_names: tuple
    class_names: tuple
    class_alignment: tuple   # final output symbol -> class label index
    beta: float
    seed: int
    trained_tables: InitVar[tuple] = None  # training's, so none is built twice
    # one LayerTable per layer, derived from the nodes: not compared, not saved
    tables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, trained_tables):
        layers = self.topology.layers
        slots = {(i, k): (layers[i].n_in[k], layers[i].n_out)
                 for i, k in self.topology.slots}
        if set(self.nodes) != set(slots):
            raise ValidationError("one trained node per topology slot required")
        for key, shape in slots.items():
            channel = self.nodes[key].channel
            if (channel.rows, channel.cols) != shape:
                raise ValidationError(f"node {key}: channel shape {(channel.rows, channel.cols)} "
                                      f"must match the topology's {shape}")
        cards = tuple(spec.cardinality for spec in self.quantizers)
        if cards and cards != self.topology.cards:
            raise ValidationError(f"quantizer cardinalities {cards} must match layer 0's "
                                  f"n_in {self.topology.cards}")
        align = tuple(int(a) for a in self.class_alignment)
        if sorted(align) != list(range(self.topology.n_class)):
            raise ValidationError("class_alignment must be a bijection on the classes")
        object.__setattr__(self, "class_alignment", align)
        object.__setattr__(self, "tables", trained_tables or tuple(
            LayerTable.of([self.nodes[(i, k)].channel.p for k in range(layer.size)])
            for i, layer in enumerate(layers)))

    @property
    def n_class(self) -> int:
        return self.topology.n_class


def channel_cdf(channel: np.ndarray) -> np.ndarray:
    """The ``(n_out - 1, n_in)`` table of each row's cumulative thresholds.

    Column ``x`` holds the first ``n_out - 1`` partial sums of channel row
    ``x``; the last sum is left out (see ``sample_channel``).  The table is
    contiguous, so gathering the columns of a symbol array with
    ``take(symbols, axis=1)`` reads each threshold row in one pass.  The
    table of stacked channels is their tables side by side.
    """
    return np.ascontiguousarray(np.cumsum(channel, axis=1)[:, :-1].T)


@dataclass(frozen=True)
class LayerTable:
    """One layer's sampling table: ``channel_cdf`` of its nodes' stacked
    channel rows (read-only), and the column where each node's part starts."""

    thresholds: np.ndarray   # (n_out - 1, total n_in of the layer)
    offsets: np.ndarray      # (K, 1)

    @classmethod
    def of(cls, channels) -> LayerTable:
        table = channel_cdf(np.concatenate(channels))
        table.flags.writeable = False
        offsets = np.cumsum([0] + [c.shape[0] for c in channels[:-1]])[:, None]
        return cls(thresholds=table, offsets=offsets)

    def gather(self, inputs: np.ndarray) -> np.ndarray:
        """The ``(n_out - 1, K, N)`` thresholds of a layer's ``(K, N)`` input symbols."""
        return self.thresholds.take(inputs + self.offsets, axis=1)


def sample_channel(thresholds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one output symbol per input symbol from gathered thresholds.

    ``thresholds`` is ``(n_out - 1, *shape)``, as ``LayerTable.gather``'s
    ``(n_out - 1, K, N)``; one ``rng.random(shape)`` call draws a uniform
    ``u`` per symbol in C order, the same stream as K draws of N.  The
    output is the number of thresholds ``t <= u``: the standard inverse CDF,
    so a symbol of probability 0 is never emitted, even at ``u = 0``.
    Cumulative rows are non-decreasing, so counting only the first
    ``n_out - 1`` thresholds clamps the count to ``n_out - 1``, which absorbs
    rows whose last threshold rounds below 1.

    The counts are returned in the smallest unsigned type that holds
    ``n_out - 1`` (``uint8`` up to 256 symbols), the type they are counted
    in; they lie in ``[0, n_out)`` by construction, so no caller re-checks them.
    """
    return _count(thresholds, rng.random(thresholds.shape[1:]))


def _count(thresholds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per entry of ``u``, the number of ``thresholds`` rows with ``t <= u``.

    The one sampling rule: ``sample_channel`` and the open-row passes of
    ``predict_quantized`` both count through it.
    """
    counts = np.zeros(u.shape, dtype=np.min_scalar_type(len(thresholds)))
    for row in thresholds:
        counts += (u >= row).view(np.uint8)  # booleans as bytes: no casting loop for uint8
    return counts


def _align_classes(py_given_out: np.ndarray) -> tuple:
    """Bijection from final output symbols to classes by maximum posterior.

    Greedy on descending posterior mass, so it reduces to per-symbol argmax
    whenever that is already collision-free; ties go to the smaller class.
    """
    n = py_given_out.shape[0]
    pairs = sorted(
        ((j, m) for j in range(n) for m in range(n)),
        key=lambda jm: (-py_given_out[jm[0], jm[1]], jm[0], jm[1]),
    )
    assign = {}
    used = set()
    for j, m in pairs:
        if j not in assign and m not in used:
            assign[j] = m
            used.add(m)
    return tuple(assign[j] for j in range(n))


def walk(topology: Topology, columns, layer):
    """Push symbol columns up the tree, one layer at a time.

    A layer's inputs are one ``(K, N)`` int64 array, row k for node k.
    ``layer(layer_idx, inputs)`` returns the layer's outputs as one
    ``(K, N)`` integer array, each symbol in ``[0, n_out)``, as
    ``sample_channel`` makes them; it is called in layer order.  After each
    layer the walk yields ``(layer_idx, inputs, outputs)``, then muxes the
    outputs into the next layer's inputs.  The groups are adjacent pairs
    and, in an odd layer, one trailing triple (``_group_layer``), so the
    pairs pack from strided slices into the rows of one new int64 array and
    the triple into its last row.  The outputs are read where they lie, in
    their own dtype, and not range-checked again: ``mux_combine`` is the
    checked mux for other callers.
    """
    inputs = np.asarray(columns, dtype=np.int64)
    for layer_idx, spec in enumerate(topology.layers):
        outputs = layer(layer_idx, inputs)
        yield layer_idx, inputs, outputs
        if layer_idx < topology.depth:
            groups = topology.mux_groups[layer_idx]
            inputs = np.empty((len(groups), outputs.shape[1]), dtype=np.int64)
            n = 2 * sum(len(g) == 2 for g in groups)
            _pack([outputs[0:n:2], outputs[1:n:2]], [spec.n_out] * 2, inputs[:n // 2])
            if spec.size % 2:
                _pack(outputs[n:], [spec.n_out] * 3, inputs[-1])


def _check_alphabets(data: QuantizedDataset, topology: Topology) -> None:
    """Refuse a table whose feature alphabets are not the tree's layer-0 alphabets."""
    if data.cardinalities != topology.cards:
        raise SchemaMismatchError(f"dataset alphabets {data.cardinalities} do not match the "
                                  f"tree's layer-0 alphabets {topology.cards}")


def train_network(data: QuantizedDataset, topology: Topology, beta: float,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                  seed: int = 0, quantizers=(), feature_names=(),
                  class_names=()) -> DINModel:
    """Train the tree layer by layer on quantized columns.

    Each node gets empirical estimates from its (possibly sampled) input
    stream, solves its bottleneck problem, then emits one stochastic
    realization that feeds the muxes of the next layer.  The final node's
    class posteriors align its outputs to the classes.  A non-final node
    with ``n_in <= n_out`` keeps its input (see the module docstring).  A
    node that fails to converge is recorded in its diagnostics, not fatal.
    """
    _check_alphabets(data, topology)
    if data.n_class != topology.n_class:
        raise SchemaMismatchError(
            f"dataset has {data.n_class} classes, topology expects {topology.n_class}")

    nodes = {}
    tables = []
    final_problem = None
    rng = np.random.default_rng([seed, _STREAM_TRAIN_SAMPLE])

    def train_layer(layer_idx, inputs):
        nonlocal final_problem
        layer = topology.layers[layer_idx]
        for k, symbols in enumerate(inputs):
            px, py_x = estimate_empirical(symbols, data.labels, layer.n_in[k], data.n_class)
            final_problem = IBProblem(px=px, py_given_x=py_x, beta=beta, n_out=layer.n_out)
            nodes[(layer_idx, k)] = solve_ib(final_problem, tol=tol, max_iter=max_iter,
                                             seed=derive_seed(seed, _STREAM_IB, layer_idx, k),
                                             keep_input=layer_idx < topology.depth)
        tables.append(LayerTable.of([nodes[(layer_idx, k)].channel.p
                                     for k in range(layer.size)]))
        return sample_channel(tables[-1].gather(inputs), rng)

    for _ in walk(topology, data.symbols, train_layer):
        pass

    # the walk ends on the final node, whose outputs are aligned to classes
    _, py_out = posteriors(final_problem, nodes[(topology.depth, 0)].channel)
    return DINModel(
        topology=topology,
        nodes=nodes,
        quantizers=tuple(quantizers),
        feature_names=tuple(feature_names),
        class_names=tuple(class_names),
        class_alignment=_align_classes(py_out.p),
        beta=float(beta),
        seed=int(seed),
        trained_tables=tuple(tables),
    )


def predict_quantized(model: DINModel, data: QuantizedDataset, seed: int = 0,
                      mode: str = "stochastic", repeats: int = 25) -> np.ndarray:
    """Class label indices for already-quantized rows.

    ``stochastic`` runs one sampled pass, ``ensemble`` ``repeats`` of them,
    and each row takes its passes' majority vote (ties to the smaller
    label).  All passes draw from one generator, each after the previous
    one, so ensemble with repeats=1 is stochastic exactly and R repeats are
    the first R passes of R + 1.

    A row leaves the walk once no remaining pass can change its vote
    (``_settled``); later passes walk the open rows only.  Every pass still
    draws each layer's full ``(K, N)`` block and keeps the open rows'
    columns, and once no row is open the generator is advanced past the
    draws left, so every row sees the uniforms of the full computation and
    the generator ends where it leaves it.
    """
    _check_alphabets(data, model.topology)
    if mode not in ("stochastic", "ensemble"):
        raise ValidationError(f"unknown prediction mode {mode!r}")
    if mode == "ensemble" and repeats < 1:
        raise ValidationError("ensemble needs repeats >= 1")
    passes = repeats if mode == "ensemble" else 1
    rng = np.random.default_rng([seed, _STREAM_PREDICT])
    topology, tables, n = model.topology, model.tables, data.n_rows
    symbols = data.symbols
    # every repeat feeds layer 0 the same columns, so gather its thresholds once
    first = tables[0].gather(symbols)

    def sample_layer(layer, inputs):
        thresholds = first if layer == 0 else tables[layer].gather(inputs)
        if len(rows) == n:
            return sample_channel(thresholds, rng)
        # the layer's full draw, of which the open rows keep theirs
        u = rng.random((topology.layer_sizes[layer], n))
        return _count(thresholds, u.take(rows, axis=1))

    labels = np.empty(n, dtype=np.intp)
    rows = np.arange(n)       # the data row of each open column
    votes = np.zeros((model.n_class, n), dtype=np.int64)  # class by open row
    for done in range(1, passes + 1):
        for _, _, outputs in walk(topology, symbols, sample_layer):
            pass
        for symbol, label in enumerate(model.class_alignment):
            votes[label] += outputs[0] == symbol
        if 2 * done < passes:  # no row can be settled yet
            continue
        lead = votes.argmax(axis=0)
        settled = _settled(votes, lead, passes - done)
        labels[rows[settled]] = lead[settled]
        if settled.all():
            # one 64-bit word per double: skip the draws of the passes left
            rng.bit_generator.advance((passes - done) * len(topology.slots) * n)
            break
        if settled.any():
            keep = ~settled
            rows, votes, symbols = rows[keep], votes[:, keep], symbols[:, keep]
            first = first[:, :, keep]
    return labels


def _settled(votes: np.ndarray, lead: np.ndarray, remaining: int) -> np.ndarray:
    """Rows whose leading class no ``remaining`` further votes can overtake.

    ``votes`` is class by row and ``lead`` its ``argmax(axis=0)``, ties to
    the smaller label.  A class k can take the lead when all the remaining
    votes go to it, so the lead L is settled when for every other k
    ``v_k + remaining < v_L``, or ``==`` with ``L < k`` (a tie stays L's).
    """
    cols = np.arange(votes.shape[1])
    # a class below L needs one vote more than a tie to take the lead
    gap = votes[lead, cols] - votes - (np.arange(len(votes))[:, None] < lead)
    gap[lead, cols] = remaining  # L cannot overtake itself
    return gap.min(axis=0) >= remaining


def quantize_features(model: DINModel, dataset) -> QuantizedDataset:
    """Quantize a raw dataset with the model's fitted specs."""
    if not model.quantizers:
        raise SchemaMismatchError("model carries no quantizers; pass quantized data")
    if tuple(dataset.feature_names) != tuple(model.feature_names):
        missing = [name for name in model.feature_names if name not in dataset.feature_names]
        detail = f"; missing column(s) {missing}" if missing else ""
        raise SchemaMismatchError(
            f"dataset columns {list(dataset.feature_names)} do not match the "
            f"model's features{detail}")
    if tuple(dataset.classes) != tuple(model.class_names):
        raise SchemaMismatchError(
            f"dataset classes {list(dataset.classes)} do not match the model's "
            f"{list(model.class_names)}")
    return quantize_with(model.quantizers, dataset)


def predict(model: DINModel, dataset, seed: int = 0, mode: str = "stochastic",
            repeats: int = 25) -> np.ndarray:
    """Class label indices for raw rows (quantize, propagate, align)."""
    return predict_quantized(model, quantize_features(model, dataset),
                             seed=seed, mode=mode, repeats=repeats)
