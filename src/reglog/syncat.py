"""Internal relations over a finite model, and an executable law suite.

Objects are the model's finite relations, each a formula in its context
(:class:`~reglog.model.FinRelation`), and their tensor is the laxator
:func:`~reglog.model.rho_lax`.  Morphisms are relations between the
underlying tuple sets whose marginals stay inside the endpoint objects.
Composition is the relational join on the shared middle block.  Internal
*functions* are the total deterministic morphisms, equivalently the left
adjoints; :func:`classify` computes both characterizations and insists they
agree.

A morphism is stored as a boolean matrix with one ``int`` bitmask per row of
the domain, in sorted order: bit ``j`` of a row's mask is set when the
relation pairs that row with the ``j``-th sorted row of the codomain.  The
join on the middle block then ORs the second relation's masks over the set
bits of each row, the order is a per-row subset test and the meet is a per-row
AND.  Tuples of equal arity sort lexicographically, so row ``i * |R| + j`` of
``rho_lax(L, R)`` is the pair (row ``i`` of ``L``, row ``j`` of ``R``), and
tensors, braids, copies and discards are index arithmetic.  The sets of concatenated rows are derived views, read by
validation, witnesses and tests.

:func:`check_regular_axioms` sweeps bounded families of objects and morphisms
and verifies, exhaustively within the stated bounds, the axioms this category
is supposed to satisfy: finite limits with unique mediators, image
factorizations orthogonal to monos, stability of regular epis under pullback,
the per-object copy/merge/discard/spawn laws, and the order-theoretic facts
about functions.  Every failed check carries a witness, so a deliberately
broken operation shows up with a concrete counterexample.  A check keeps only
its first witness, in sweep order, but keeps counting every case it tries, so
the case counts are the same whether the check passes or fails.  Two objects
with the same number of rows are isomorphic, and every law here is invariant
under isomorphism (a pullback, equalizer or image is only defined up to one
anyway), so every sweep runs on the skeleton: once per shape of object, pair,
cospan, chain or cone apex, counted for every member.
The objects of a sweep are counted from the domain sizes, and only the first
of each shape is built.  Negative bounds, and bounds under which the sweeps
would pass one of the ``AXIOMS_MAX_*`` limits (contexts, bits of masks,
relations, associativity triples, objects of the limit family), are refused
before any sweep runs.

Where a sweep reads only the masks of a composite, it composes the bare masks
with ``_compose`` and orders them with ``_leq`` instead of building a relation
to throw away.  The sweeps still call ``mu_ir``, ``pullback_ir``,
``equalizer_ir``, ``image_ir`` and ``classify`` through the module, so a
broken replacement of any of them shows up in the report.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cache, reduce
from operator import eq, or_
from typing import Iterable, Iterator, NamedTuple

from .context import Context, mk_context, oplus, terminal_ctx
from .errors import CompositionError, ReglogError, ValidationError
from .model import FinRelation, ModelInstance, rho_lax, true_rel


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def _ones(n: int) -> tuple[int, ...]:
    """The masks of the identity on an object of ``n`` rows."""
    return tuple(1 << i for i in range(n))


def terminal_syn() -> FinRelation:
    return FinRelation(terminal_ctx(), frozenset({()}))


class InternalRelation(NamedTuple):
    """A relation ``dom -> cod`` whose marginals respect the endpoint predicates.

    ``masks`` holds one bitmask per row of ``dom.sorted_rows``; bit ``j`` of
    ``masks[i]`` says that the relation pairs domain row ``i`` with
    ``cod.sorted_rows[j]``.  :func:`mk_internal_relation` builds the masks
    from rows that come from outside and checks their marginals; the
    operations of this module build their results directly, because they
    preserve the encoding.  ``rows``, :meth:`split_rows` and
    :meth:`left_marginal` decode the masks back into tuples.

    A named tuple: immutable, hashable and compared by value like a frozen
    dataclass, but cheaper to build, which counts in the law suite.  As a
    tuple it also equals the plain tuple ``(dom, cod, masks)``.
    """

    dom: FinRelation
    cod: FinRelation
    masks: tuple[int, ...]

    def split_rows(self) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
        ys = self.cod.sorted_rows
        for x, mask in zip(self.dom.sorted_rows, self.masks):
            for j in _bits(mask):
                yield x, ys[j]

    @property
    def rows(self) -> frozenset[tuple[str, ...]]:
        """Each pair as a domain row followed by a codomain row."""
        return frozenset(x + y for x, y in self.split_rows())

    def left_marginal(self) -> frozenset[tuple[str, ...]]:
        return frozenset(x for x, mask in zip(self.dom.sorted_rows, self.masks) if mask)


def mk_internal_relation(
    dom: FinRelation, cod: FinRelation, rows: Iterable[tuple[str, ...]]
) -> InternalRelation:
    """Validating constructor: both marginals must lie inside the endpoint
    objects, which also rules out rows of the wrong arity."""
    rows = frozenset(tuple(row) for row in rows)
    n1 = dom.context.arity
    if not {row[:n1] for row in rows} <= dom.tuples:
        raise ValidationError("left marginal escapes the domain predicate")
    if not {row[n1:] for row in rows} <= cod.tuples:
        raise ValidationError("right marginal escapes the codomain predicate")
    at_x, at_y = dom.row_index, cod.row_index
    masks = [0] * len(dom)
    for row in rows:
        masks[at_x[row[:n1]]] |= 1 << at_y[row[n1:]]
    return InternalRelation(dom, cod, tuple(masks))


def identity_ir(o: FinRelation) -> InternalRelation:
    return InternalRelation(o, o, _ones(len(o)))


def _compose(before: tuple[int, ...], after: tuple[int, ...]) -> tuple[int, ...]:
    """The masks of a join: each row of ``before`` ORs together the rows of
    ``after`` at its set bits."""
    masks = []
    for mask in before:
        reached = 0
        while mask:
            low = mask & -mask
            reached |= after[low.bit_length() - 1]
            mask ^= low
        masks.append(reached)
    return tuple(masks)


def compose_ir(first: InternalRelation, second: InternalRelation) -> InternalRelation:
    """Relational join ``first ; second`` on the shared middle object."""
    if first.cod is not second.dom and first.cod != second.dom:
        raise CompositionError("middle objects differ")
    return InternalRelation(first.dom, second.cod, _compose(first.masks, second.masks))


def transpose_ir(rel: InternalRelation) -> InternalRelation:
    columns = [0] * len(rel.cod)
    for i, mask in enumerate(rel.masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            columns[low.bit_length() - 1] |= bit
            mask ^= low
    return InternalRelation(rel.cod, rel.dom, tuple(columns))


def _leq(lower: tuple[int, ...], upper: tuple[int, ...]) -> bool:
    """The order on the masks of parallel relations: row-wise inclusion."""
    return not any(a & ~b for a, b in zip(lower, upper))


def leq_ir(lower: InternalRelation, upper: InternalRelation) -> bool:
    if (lower.dom is not upper.dom and lower.dom != upper.dom) or (
        lower.cod is not upper.cod and lower.cod != upper.cod
    ):
        raise CompositionError("ordering compares parallel relations")
    return _leq(lower.masks, upper.masks)


def meet_ir(a: InternalRelation, b: InternalRelation) -> InternalRelation:
    if (a.dom is not b.dom and a.dom != b.dom) or (
        a.cod is not b.cod and a.cod != b.cod
    ):
        raise CompositionError("meet needs parallel relations")
    return InternalRelation(
        a.dom, a.cod, tuple(x & y for x, y in zip(a.masks, b.masks))
    )


def tensor_ir(a: InternalRelation, b: InternalRelation) -> InternalRelation:
    # domain row (i, k) relates to codomain row (p, q), at p * width + q, when
    # row i of ``a`` has bit p and row k of ``b`` has bit q
    width = len(b.cod)
    masks = []
    for mask_a in a.masks:
        shifts = [p * width for p in _bits(mask_a)]
        for mask_b in b.masks:
            acc = 0
            for shift in shifts:
                acc |= mask_b << shift
            masks.append(acc)
    return InternalRelation(rho_lax(a.dom, b.dom), rho_lax(a.cod, b.cod), tuple(masks))


def braid_ir(left: FinRelation, right: FinRelation) -> InternalRelation:
    nl, nr = len(left), len(right)
    masks = tuple(1 << (j * nl + i) for i in range(nl) for j in range(nr))
    return InternalRelation(rho_lax(left, right), rho_lax(right, left), masks)


def delta_ir(o: FinRelation) -> InternalRelation:
    n = len(o)
    return InternalRelation(o, rho_lax(o, o), tuple(1 << (i * n + i) for i in range(n)))


def mu_ir(o: FinRelation) -> InternalRelation:
    return transpose_ir(delta_ir(o))


def bang(o: FinRelation) -> InternalRelation:
    """The discard map to the terminal object."""
    return InternalRelation(o, terminal_syn(), (1,) * len(o))


def eta_ir(o: FinRelation) -> InternalRelation:
    return transpose_ir(bang(o))


@dataclass(frozen=True)
class Classification:
    total: bool
    deterministic: bool

    @property
    def function(self) -> bool:
        return self.total and self.deterministic


def classify(rel: InternalRelation) -> Classification:
    """Totality and determinism, checked against the adjoint characterization.

    The direct route reads both properties off the masks: every row has a
    bit, and no row has two.  The adjoint route asks whether the transpose
    is a right adjoint (unit and counit inequalities, tested on the masks of
    the composites).  Both are computed and must agree.
    """
    total = all(rel.masks)
    deterministic = all(mask & (mask - 1) == 0 for mask in rel.masks)

    dag = transpose_ir(rel).masks
    unit = _leq(_ones(len(rel.dom)), _compose(rel.masks, dag))
    counit = _leq(_compose(dag, rel.masks), _ones(len(rel.cod)))
    via_adjoint = unit and counit
    via_rows = total and deterministic
    if via_rows != via_adjoint:
        raise AssertionError(
            "function characterizations disagree: "
            f"rows say {via_rows}, adjointness says {via_adjoint}"
        )
    return Classification(total, deterministic)


def is_function(rel: InternalRelation) -> bool:
    return classify(rel).function


def _one_bit_per_row(rel: InternalRelation) -> bool:
    """The row route alone: total and deterministic, for validating inputs."""
    return all(mask and not mask & (mask - 1) for mask in rel.masks)


def graph_ir(
    dom: FinRelation, cod: FinRelation, mapping: dict[tuple[str, ...], tuple[str, ...]]
) -> InternalRelation:
    return mk_internal_relation(
        dom, cod, (x + y for x, y in mapping.items())
    )


def enumerate_functions(dom: FinRelation, cod: FinRelation) -> list[InternalRelation]:
    """All internal functions ``dom -> cod``: graphs of row maps, in the
    lexicographic order of the sequence of images."""
    units = [1 << j for j in range(len(cod))]
    return [
        InternalRelation(dom, cod, choice)
        for choice in itertools.product(units, repeat=len(dom))
    ]


def _relations(dom: FinRelation, cod: FinRelation) -> Iterator[InternalRelation]:
    """All internal relations ``dom -> cod`` (subsets with good marginals),
    one at a time, smallest first, then lexicographic in the sorted
    concatenated rows.

    Position ``p`` of the ``|dom| * |cod|`` cells is the pair
    ``(p // |cod|, p % |cod|)``, which is also where ``x + y`` sorts.
    """
    nx, ny = len(dom), len(cod)
    cells = [(p // ny, 1 << (p % ny)) for p in range(nx * ny)]
    for k in range(len(cells) + 1):
        for chosen in itertools.combinations(cells, k):
            masks = [0] * nx
            for i, bit in chosen:
                masks[i] |= bit
            yield InternalRelation(dom, cod, tuple(masks))


def enumerate_relations(dom: FinRelation, cod: FinRelation) -> list[InternalRelation]:
    """The list of all internal relations ``dom -> cod``, in the order of
    :func:`_relations`."""
    return list(_relations(dom, cod))


def pullback_ir(
    t1: InternalRelation, t2: InternalRelation
) -> tuple[FinRelation, InternalRelation, InternalRelation]:
    """Pullback of two internal functions along their shared codomain."""
    if t1.cod is not t2.cod and t1.cod != t2.cod:
        raise CompositionError("pullback needs a cospan")
    if not (_one_bit_per_row(t1) and _one_bit_per_row(t2)):
        raise ValidationError("pullback is taken over internal functions")
    # (i, k) in this order is also the sorted order of the apex rows
    pairs = [
        (i, k)
        for i, m1 in enumerate(t1.masks)
        for k, m2 in enumerate(t2.masks)
        if m1 & m2
    ]
    xs1, xs2 = t1.dom.sorted_rows, t2.dom.sorted_rows
    apex = FinRelation(
        oplus(t1.dom.context, t2.dom.context),
        frozenset(xs1[i] + xs2[k] for i, k in pairs),
    )
    p1 = InternalRelation(apex, t1.dom, tuple(1 << i for i, _ in pairs))
    p2 = InternalRelation(apex, t2.dom, tuple(1 << k for _, k in pairs))
    return apex, p1, p2


def pair_ir(
    u1: InternalRelation, u2: InternalRelation, target: FinRelation
) -> InternalRelation:
    """The tupling ``<u1, u2>`` into an object on the product context.

    ``target`` comes from the caller, so every pair must be one of its rows.
    """
    if u1.dom != u2.dom:
        raise CompositionError("pairing needs a shared domain")
    ys1, ys2 = u1.cod.sorted_rows, u2.cod.sorted_rows
    where = target.row_index
    masks = []
    for m1, m2 in zip(u1.masks, u2.masks):
        acc = 0
        for j in _bits(m1):
            for k in _bits(m2):
                at = where.get(ys1[j] + ys2[k])
                if at is None:
                    raise ValidationError(
                        "right marginal escapes the codomain predicate"
                    )
                acc |= 1 << at
        masks.append(acc)
    return InternalRelation(u1.dom, target, tuple(masks))


def equalizer_ir(
    t1: InternalRelation, t2: InternalRelation
) -> tuple[FinRelation, InternalRelation]:
    """Equalizer of parallel internal functions: where the two images agree."""
    if (t1.dom is not t2.dom and t1.dom != t2.dom) or (
        t1.cod is not t2.cod and t1.cod != t2.cod
    ):
        raise CompositionError("equalizer needs parallel relations")
    if not (_one_bit_per_row(t1) and _one_bit_per_row(t2)):
        raise ValidationError("equalizer is taken over internal functions")
    agree = [i for i, (a, b) in enumerate(zip(t1.masks, t2.masks)) if a & b]
    xs = t1.dom.sorted_rows
    obj = FinRelation(t1.dom.context, frozenset(xs[i] for i in agree))
    incl = InternalRelation(obj, t1.dom, tuple(1 << i for i in agree))
    return obj, incl


def image_ir(
    rel: InternalRelation,
) -> tuple[InternalRelation, InternalRelation]:
    """Factor through the right marginal: regular epi followed by mono."""
    kept = list(_bits(reduce(or_, rel.masks, 0)))
    ys = rel.cod.sorted_rows
    image = FinRelation(rel.cod.context, frozenset(ys[j] for j in kept))
    epi = InternalRelation(
        rel.dom,
        image,
        tuple(
            sum(1 << r for r, j in enumerate(kept) if mask >> j & 1)
            for mask in rel.masks
        ),
    )
    mono = InternalRelation(image, rel.cod, tuple(1 << j for j in kept))
    return epi, mono


def is_mono_ir(rel: InternalRelation) -> bool:
    return _compose(rel.masks, transpose_ir(rel).masks) == _ones(len(rel.dom))


def is_regular_epi_ir(rel: InternalRelation) -> bool:
    return reduce(or_, rel.masks, 0) == (1 << len(rel.cod)) - 1


def _subobjects(o: FinRelation) -> Iterator[FinRelation]:
    """All subobjects, one at a time, smallest first then lexicographic."""
    for k in range(len(o) + 1):
        for subset in itertools.combinations(o.sorted_rows, k):
            yield FinRelation(o.context, frozenset(subset))


# ---------------------------------------------------------------------------
# bounded law suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomBounds:
    """Explicit search bounds for :func:`check_regular_axioms`.

    ``max_arity`` bounds the context arity for the per-object sweeps,
    ``hom_arity`` the combined arity of the pairs whose full relation space is
    enumerated, ``max_tuple_space`` the size of a tuple space that still gets
    the full power-set treatment, and ``limit_objects`` the size of the object
    family used for the limit and factorization checks.
    """

    max_arity: int = 2
    hom_arity: int = 2
    max_tuple_space: int = 4
    limit_objects: int = 6


@dataclass
class CheckResult:
    """One law check: the cases it tried and its first counterexample.

    A sweep records each case as ``if not check.count(holds):
    check.fail(witness)``, so a witness is formatted only for a failed case.
    """

    name: str
    ok: bool
    cases: int
    witness: str = ""
    seconds: float = 0.0

    def count(self, holds: bool, cases: int = 1) -> bool:
        """Add ``cases`` to the count and return ``holds``."""
        self.cases += cases
        return holds

    def fail(self, witness: str) -> None:
        """Mark the check failed; only the first witness is kept."""
        if self.ok:
            self.ok = False
            self.witness = witness

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class AxiomReport:
    bounds: AxiomBounds
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "bounds": asdict(self.bounds),
            "checks": [c.as_dict() for c in self.checks],
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            line = f"{status:4} {c.name} ({c.cases} cases)"
            if c.witness:
                line += f" witness: {c.witness}"
            lines.append(line)
        lines.append(f"result: {'ok' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def contexts_up_to(types: Iterable[str], max_arity: int) -> list[Context]:
    """Every context of bounded arity over the given types, deterministically."""
    types = sorted(set(types))
    out = []
    for arity in range(max_arity + 1):
        for typing in itertools.product(types, repeat=arity):
            used = sorted(set(typing))
            free = [t for t in types if t not in used]
            for k in range(len(free) + 1):
                for extra in itertools.combinations(free, k):
                    out.append(mk_context(typing, extra))
    return out


def _hom_shape(o: FinRelation) -> tuple[int, int, bool]:
    """What the hom sweep reads of an object: arity, rows, no extra support."""
    return o.context.arity, len(o), not o.context.extra_support()


def _object_classes(
    model: ModelInstance, max_arity: int, cap: int
) -> dict[tuple[int, int, bool], list]:
    """The objects of the per-object and hom sweeps by ``_hom_shape``: the
    first object of each shape and how many objects have it, in the order
    in which the shapes first appear.

    The objects, in order, are every subobject of each full relation of at
    most ``cap`` rows, four samples (empty, full, one row, the first half)
    of each larger one, counted even where two samples coincide, then each
    model relation that equals none of them.  They are counted from the
    domain sizes, and only the first object of a shape is built: the first
    ``k`` sorted rows of the first context with a subobject of ``k`` rows.
    """
    size = {t: len(d) for t, d in model.domains.items()}

    def rows_of(c: Context) -> int:
        # the rows of the full relation, none if a supported type is empty
        if not all(size.get(t) for t in c.support):
            return 0
        return math.prod(size[t] for t in c.port_types)

    contexts = contexts_up_to(size, max_arity)
    classes: dict[tuple[int, int, bool], list] = {}
    for c in contexts:
        n = rows_of(c)
        plain = not c.extra_support()
        for k in range(n + 1) if n <= cap else (0, n, 1, n // 2):
            shape = (c.arity, k, plain)
            if shape not in classes:
                rows = true_rel(c, model).sorted_rows
                classes[shape] = [FinRelation(c, frozenset(rows[:k])), 0]
            classes[shape][1] += math.comb(n, k) if n <= cap else 1
    listed = set(contexts)
    appended: list[FinRelation] = []
    for name in sorted(model.relations):
        rel = model.relations[name]
        c = rel.context
        if c.arity > max_arity or rel in appended:
            continue
        if c in listed:
            n, rows = rows_of(c), true_rel(c, model).sorted_rows
            if n <= cap or rel.sorted_rows in {rows[:k] for k in (0, n, 1, n // 2)}:
                continue
        appended.append(rel)
        classes.setdefault(_hom_shape(rel), [rel, 0])[1] += 1
    return classes


def _limit_family(model: ModelInstance, bounds: AxiomBounds) -> list[FinRelation]:
    """A small, diverse, deterministic family used for the limit checks.

    One-port contexts come first so the family is not dominated by empty
    shells; each context contributes its full predicate, a singleton, and
    (in a second pass) the empty predicate.
    """
    contexts = sorted(
        contexts_up_to(model.domains.keys(), 1),
        key=lambda c: (-c.arity, len(c.extra_support()), c.support, c.port_types),
    )
    family: list[FinRelation] = [terminal_syn()]

    def push(obj: FinRelation) -> bool:
        if obj not in family:
            family.append(obj)
        return len(family) >= bounds.limit_objects

    for c in contexts:
        full = true_rel(c, model)
        rows = full.rows()[:2]
        for k in range(len(rows), 0, -1):
            if push(FinRelation(c, frozenset(rows[:k]))):
                return family
    for c in contexts:
        if push(FinRelation(c, frozenset())):
            return family
    return family


_OBJECT_LAWS = ("frobenius_special_per_object", "adjoint_monoid_inequalities")
_TERMINAL_LAWS = ("terminal_map_unique", "subobject_lattice_size")
_ASSOC_LAWS = ("composition_associative",)
_PULLBACK_LAWS = (
    "pullback_square_commutes",
    "pullback_mediator_unique",
    "regular_epi_pullback_stable",
)
_EQUALIZER_LAWS = ("equalizer_universal",)
_IMAGE_LAWS = ("image_factorization", "regular_epi_mono_orthogonal")
_HOM_LAWS = (
    "validity_equals_frame_condition",
    "function_characterizations_agree",
    "order_on_functions_discrete",
    "entailments_sharpen_to_equalities",
    "transpose_involutive",
    "composition_unital",
)
_ADJOINT_LAWS = ("left_adjoints_are_the_functions",)


def _fresh(names: tuple[str, ...]) -> list[CheckResult]:
    return [CheckResult(name, True, 0) for name in names]


def _buckets(objs: Iterable[FinRelation], key) -> dict:
    """``key(o)`` -> (its first object, how many objects share it), in the
    order in which the keys first appear."""
    out: dict = {}
    for o in objs:
        k = key(o)
        first, count = out.get(k, (o, 0))
        out[k] = (first, count + 1)
    return out


def _on_skeleton(
    names: tuple[str, ...], classes, decide, with_ok: bool = False
) -> list[CheckResult]:
    """Decide a sweep's laws once per shape and weight them by its members.

    ``classes`` yields ``(shape, args, members)`` in sweep order, where
    ``args`` is the first member of the class in sweep order and ``members``
    the number of objects (or pairs, cospans, chains) in it.  Objects with
    the same number of rows are isomorphic and every law here is invariant
    under isomorphism, so ``decide(*args)`` holds for one member exactly when
    it holds for all of them, with the same case count.  A shape is decided
    on its first member in sweep order, so the first failing class met here
    is also the first failing member of a full sweep, and its witness is the
    same.

    With ``with_ok``, ``decide`` also gets ``ok``: whether every check of the
    sweep still holds when the member's turn comes.  The equalizer sweep
    skips the mediators of its first failing pair only, and associativity
    stops at its first failure, so their counts depend on it too; a shape is
    then decided once for each value of ``ok`` it meets.
    """
    totals = _fresh(names)
    decided: dict = {}
    for shape, args, members in classes:
        if with_ok:
            ok = all(total.ok for total in totals)
            shape, args = (shape, ok), (*args, ok)
        parts = decided.get(shape)
        if parts is None:
            parts = decided[shape] = decide(*args)
        for total, part in zip(totals, parts):
            if not total.count(part.ok, part.cases * members):
                total.fail(part.witness)
    return totals


def _object_laws(o: FinRelation) -> list[CheckResult]:
    frob, adjm = _fresh(_OBJECT_LAWS)
    ident = identity_ir(o)
    delta = delta_ir(o)
    mu = mu_ir(o)
    eps = bang(o)
    eta = eta_ir(o)
    two = rho_lax(o, o)
    id2 = identity_ir(two)
    # comonoid: counit both sides, coassociativity, cocommutativity
    counit_l = compose_ir(delta, tensor_ir(eps, ident))
    counit_r = compose_ir(delta, tensor_ir(ident, eps))
    coassoc_l = compose_ir(delta, tensor_ir(delta, ident))
    coassoc_r = compose_ir(delta, tensor_ir(ident, delta))
    cocomm = compose_ir(delta, braid_ir(o, o))
    frobenius_l = compose_ir(mu, delta)
    frobenius_r = compose_ir(tensor_ir(ident, delta), tensor_ir(mu, ident))
    special = compose_ir(delta, mu)
    laws = [
        counit_l.masks == ident.masks,
        counit_r.masks == ident.masks,
        coassoc_l.masks == coassoc_r.masks,
        cocomm.masks == delta.masks,
        frobenius_l.masks == frobenius_r.masks,
        special.masks == ident.masks,
    ]
    if not frob.count(all(laws), len(laws)):
        frob.fail(f"object {o}")
    ineqs = [
        leq_ir(ident, compose_ir(delta, mu)),
        leq_ir(compose_ir(mu, delta), id2),
        leq_ir(ident, compose_ir(eps, eta)),
        leq_ir(
            compose_ir(eta, eps),
            identity_ir(terminal_syn()),
        ),
    ]
    if not adjm.count(all(ineqs), len(ineqs)):
        adjm.fail(f"object {o}")
    return [frob, adjm]


def _terminal_laws(o: FinRelation) -> list[CheckResult]:
    res, sub = _fresh(_TERMINAL_LAWS)
    point = terminal_syn()
    functions = [r for r in _relations(o, point) if classify(r).function]
    if not res.count(len(functions) == 1 and functions[0].masks == bang(o).masks):
        res.fail(f"object {o}: {len(functions)} maps to the point")
    if not sub.count(sum(1 for _ in _subobjects(o)) == 2 ** len(o)):
        sub.fail(f"object {o}")
    return [res, sub]


def _hom_laws(o1: FinRelation, o2: FinRelation) -> list[CheckResult]:
    """Every hom law but the adjoint search on the relations ``o1 -> o2``;
    none of them reads whether a context has extra support."""
    validity, threeway, discrete, remark, invol, unital = _fresh(_HOM_LAWS)
    full1 = o1.tuples
    ones1, ones2 = _ones(len(o1)), _ones(len(o2))
    functions = []
    for rel in _relations(o1, o2):
        # frame condition: squeezing between the identities is a no-op
        left_unit = _compose(ones1, rel.masks)
        if not validity.count(_compose(left_unit, ones2) == rel.masks):
            validity.fail(f"{o1} -> {o2}, rows {sorted(rel.rows)}")
        cls = classify(rel)  # raises if the two routes disagree
        threeway.count(True)
        if cls.function:
            functions.append(rel)
        if not invol.count(transpose_ir(transpose_ir(rel)).masks == rel.masks):
            invol.fail(f"{o1} -> {o2}")
        right_unit = _compose(rel.masks, ones2)
        if not unital.count(left_unit == rel.masks == right_unit):
            unital.fail(f"{o1} -> {o2}")
        good = True
        if cls.total and rel.left_marginal() != full1:
            good = False
        if cls.deterministic:
            wide = set()
            thin = set()
            for x, y in rel.split_rows():
                thin.add(x + y + y)
                for x2, y2 in rel.split_rows():
                    if x2 == x:
                        wide.add(x + y + y2)
            if wide != thin:
                good = False
        if not remark.count(good):
            remark.fail(f"{o1} -> {o2}, rows {sorted(rel.rows)}")
    for fa in functions:
        for fb in functions:
            # no strict inclusion; tuple ``<`` would compare the masks as
            # numbers
            if not discrete.count(
                fa.masks == fb.masks or not _leq(fa.masks, fb.masks)
            ):
                discrete.fail(f"{o1} -> {o2}")
    return [validity, threeway, discrete, remark, invol, unital]


def _adjoint_laws(o1: FinRelation, o2: FinRelation) -> list[CheckResult]:
    """Whether the relations ``o1 -> o2`` that have a right adjoint, found by
    trying every candidate, are exactly the functions; run only where
    neither context has extra support."""
    (adjoint,) = _fresh(_ADJOINT_LAWS)
    ones1, ones2 = _ones(len(o1)), _ones(len(o2))
    backwards = [xi.masks for xi in _relations(o2, o1)]
    for rel in _relations(o1, o2):
        has_adjoint = any(
            _leq(ones1, _compose(rel.masks, xi))
            and _leq(_compose(xi, rel.masks), ones2)
            for xi in backwards
        )
        if not adjoint.count(has_adjoint == classify(rel).function):
            adjoint.fail(f"{o1} -> {o2}, rows {sorted(rel.rows)}")
    return [adjoint]


def _hom_sweep_checks(classes: dict, bounds: AxiomBounds) -> list[CheckResult]:
    """The hom laws once per ``(rows, rows)`` over every admitted pair of the
    object classes, then the adjoint search once per ``(rows, rows)`` over
    the plain pairs."""
    items = classes.items()
    pairs = [
        (p1 and p2, ((r1, r2), (o1, o2), n1 * n2))
        for (a1, r1, p1), (o1, n1) in items
        for (a2, r2, p2), (o2, n2) in items
        if a1 + a2 <= bounds.hom_arity and r1 * r2 <= bounds.max_tuple_space
    ]
    hom = _on_skeleton(_HOM_LAWS, (c for _, c in pairs), _hom_laws)
    plain = (c for both, c in pairs if both)
    return hom + _on_skeleton(_ADJOINT_LAWS, plain, _adjoint_laws)


def _assoc_laws(
    o1: FinRelation, o2: FinRelation, o3: FinRelation, o4: FinRelation, ok: bool
) -> list[CheckResult]:
    (check,) = _fresh(_ASSOC_LAWS)
    if not ok:
        return [check]  # the sweep stops at its first failure
    as_ = enumerate_relations(o1, o2)
    bs = enumerate_relations(o2, o3)
    cs = [c.masks for c in enumerate_relations(o3, o4)]
    bcs = [[_compose(b.masks, c) for c in cs] for b in bs]
    distinct = set().union(*bcs)
    # a row of (a;b);c over every c depends on a;b only, and a;(b;c) on b;c
    lhs_of: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a in as_:
        rhs_of = {bc: _compose(a.masks, bc) for bc in distinct}
        for b, b_then in zip(bs, bcs):
            ab = _compose(a.masks, b.masks)
            lhs = lhs_of.get(ab)
            if lhs is None:
                lhs = lhs_of[ab] = [_compose(ab, c) for c in cs]
            rhs = list(map(rhs_of.__getitem__, b_then))
            if lhs != rhs:
                # the sweep stops at the first failing c, counting it
                check.count(False, list(map(eq, lhs, rhs)).index(False) + 1)
                check.fail(f"{o1} -> {o2} -> {o3} -> {o4}")
                return [check]
            check.count(True, len(cs))
    return [check]


def _assoc_check(model: ModelInstance, bounds: AxiomBounds) -> list[CheckResult]:
    chain_objs = []
    for c in contexts_up_to(model.domains.keys(), 1):
        if c.arity == 1 and not c.extra_support():
            full = true_rel(c, model)
            rows = full.rows()
            while len(rows) * len(rows) > bounds.max_tuple_space:
                rows = rows[:-1]
            chain_objs.append(FinRelation(c, frozenset(rows)))
    chain_objs = chain_objs[:2] or [terminal_syn()]
    classes = (
        (tuple(map(len, chain)), chain, 1)
        for chain in itertools.product(chain_objs, repeat=4)
    )
    return _on_skeleton(_ASSOC_LAWS, classes, _assoc_laws, with_ok=True)


def _cones(
    family: list[FinRelation], o1: FinRelation, ts: list[InternalRelation]
) -> list[
    tuple[FinRelation, int, list[InternalRelation], list[list[tuple[int, ...]]]]
]:
    """Per row count of the family's cone apexes: its first apex ``x`` in
    family order, how many apexes share it, the functions ``u: x -> o1``, and
    for each the masks of ``u ; t`` for every ``t`` in ``ts``.  Apexes of one
    row count are isomorphic, so one stands for all of them."""
    cones = []
    for x, members in _buckets(family, len).values():
        us = enumerate_functions(x, o1)
        after = [[_compose(u.masks, t.masks) for t in ts] for u in us]
        cones.append((x, members, us, after))
    return cones


def _pullback_laws(
    o: FinRelation, o1: FinRelation, o2: FinRelation, family: list[FinRelation]
) -> list[CheckResult]:
    """The pullback laws on every cospan of functions ``o1 -> o <- o2``, each
    cone from an apex of the family."""
    pb_exists, pb_unique, stability = _fresh(_PULLBACK_LAWS)
    t1s, t2s = enumerate_functions(o1, o), enumerate_functions(o2, o)
    cones = []
    for (x, members, u1s, after1), (_, _, u2s, after2) in zip(
        _cones(family, o1, t1s), _cones(family, o2, t2s)
    ):
        # per leg t2, the legs u2 in order, by the masks of u2 ; t2
        ends: list[dict[tuple[int, ...], list[InternalRelation]]] = [{} for _ in t2s]
        for u2, other in zip(u2s, after2):
            for end, mask in zip(ends, other):
                end.setdefault(mask, []).append(u2)
        cones.append((x, members, list(zip(u1s, after1)), ends))
    for q1, t1 in enumerate(t1s):
        for q2, t2 in enumerate(t2s):
            apex, p1, p2 = pullback_ir(t1, t2)
            if not pb_exists.count(
                _compose(p1.masks, t1.masks) == _compose(p2.masks, t2.masks)
                and is_function(p1)
                and is_function(p2)
            ):
                pb_exists.fail(f"cospan {o1} -> {o} <- {o2}")
            if is_regular_epi_ir(t2) and not stability.count(is_regular_epi_ir(p1)):
                stability.fail(f"cospan {o1} -> {o} <- {o2}")
            for x, members, legs, ends in cones:
                # the mediators of each pair of legs, in order
                by_legs = None
                end = ends[q2]
                for u1, lead in legs:
                    for u2 in end.get(lead[q1], ()):
                        if by_legs is None:
                            by_legs = {}
                            for m in enumerate_functions(x, apex):
                                key = (
                                    _compose(m.masks, p1.masks),
                                    _compose(m.masks, p2.masks),
                                )
                                by_legs.setdefault(key, []).append(m.masks)
                        mediators = by_legs.get((u1.masks, u2.masks), [])
                        if not pb_unique.count(
                            mediators == [pair_ir(u1, u2, apex).masks], members
                        ):
                            pb_unique.fail(f"cone {x} over {o1} -> {o} <- {o2}")
    return [pb_exists, pb_unique, stability]


def _pullback_checks(family: list[FinRelation]) -> list[CheckResult]:
    """Each shape of cospan stands for the product of its three buckets."""
    buckets = _buckets(family, len).items()
    classes = (
        ((n, n1, n2), (o, o1, o2, family), k * k1 * k2)
        for n, (o, k) in buckets
        for n1, (o1, k1) in buckets
        for n2, (o2, k2) in buckets
    )
    return _on_skeleton(_PULLBACK_LAWS, classes, _pullback_laws)


def _equalizer_laws(
    o1: FinRelation, o2: FinRelation, family: list[FinRelation], ok: bool
) -> list[CheckResult]:
    """The equalizer law on every parallel pair of functions ``o1 -> o2``,
    each cone from an apex of the family."""
    (check,) = _fresh(_EQUALIZER_LAWS)
    ts = enumerate_functions(o1, o2)
    cones = _cones(family, o1, ts)
    for q1, t1 in enumerate(ts):
        for q2, t2 in enumerate(ts):
            obj, incl = equalizer_ir(t1, t2)
            on_t1 = _compose(incl.masks, t1.masks)
            good = is_mono_ir(incl) and on_t1 == _compose(incl.masks, t2.masks)
            if not check.count(good):
                # only the first failing pair of the sweep skips its mediators
                first = ok and check.ok
                check.fail(f"parallel pair {o1} -> {o2}")
                if first:
                    continue
            for x, members, us, after in cones:
                legs = None
                for u, via in zip(us, after):
                    if via[q1] != via[q2]:
                        continue
                    if legs is None:
                        legs = [
                            _compose(m.masks, incl.masks)
                            for m in enumerate_functions(x, obj)
                        ]
                    if not check.count(legs.count(u.masks) == 1, members):
                        check.fail(f"cone {x} into equalizer of {o1} -> {o2}")
    return [check]


def _equalizer_checks(family: list[FinRelation]) -> list[CheckResult]:
    classes = (
        ((len(o1), len(o2)), (o1, o2, family), 1) for o1 in family for o2 in family
    )
    return _on_skeleton(_EQUALIZER_LAWS, classes, _equalizer_laws, with_ok=True)


def _image_laws(
    a: FinRelation, b: FinRelation
) -> tuple[CheckResult, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The image factorization of every function ``a -> b``, and the masks of
    the regular epis and of the monos among those functions, in order."""
    img = CheckResult(_IMAGE_LAWS[0], True, 0)
    epis, monos = [], []
    for t in enumerate_functions(a, b):
        epi, mono = image_ir(t)
        if not img.count(
            _compose(epi.masks, mono.masks) == t.masks
            and is_regular_epi_ir(epi)
            and is_mono_ir(mono)
            and is_function(epi)
            and is_function(mono)
        ):
            img.fail(f"function {a} -> {b}")
        if is_regular_epi_ir(t):
            epis.append(t.masks)
        if is_mono_ir(t):
            monos.append(t.masks)
    return img, epis, monos


def _orthogonal(e: InternalRelation, m: InternalRelation) -> tuple[bool, int]:
    """Whether every commuting square ``e ; g == f ; m`` of functions has
    exactly one diagonal ``h`` (``e ; h == f`` and ``h ; m == g``), and how
    many squares there are."""
    gs = enumerate_functions(e.cod, m.cod)
    e_then = [_compose(e.masks, g.masks) for g in gs]
    legs = None
    holds, squares = True, 0
    for f in enumerate_functions(e.dom, m.dom):
        fm = _compose(f.masks, m.masks)
        for g, eg in zip(gs, e_then):
            if eg != fm:
                continue
            if legs is None:
                legs = [
                    (_compose(e.masks, h.masks), _compose(h.masks, m.masks))
                    for h in enumerate_functions(e.cod, m.dom)
                ]
            squares += 1
            if legs.count((f.masks, g.masks)) != 1:
                holds = False
    return holds, squares


def _image_checks(family: list[FinRelation]) -> list[CheckResult]:
    """Image factorization of every function between objects of the family,
    then orthogonality of its first 12 regular epis to its first 12 monos.

    The pairs are walked in order, but the functions of a pair are decided
    once per shape ``(len(a), len(b))``, and each square of an epi and a mono
    once per shape of both and their masks; see ``_on_skeleton``.
    """
    img, ortho = _fresh(_IMAGE_LAWS)
    epis: list[InternalRelation] = []
    monos: list[InternalRelation] = []
    pairs: dict = {}
    for a in family:
        for b in family:
            shape = (len(a), len(b))
            if shape not in pairs:
                pairs[shape] = _image_laws(a, b)
            part, epi_masks, mono_masks = pairs[shape]
            if not img.count(part.ok, part.cases):
                img.fail(part.witness)
            epis.extend(InternalRelation(a, b, k) for k in epi_masks[: 12 - len(epis)])
            monos.extend(
                InternalRelation(a, b, k) for k in mono_masks[: 12 - len(monos)]
            )
    squares: dict = {}
    for e in epis:
        for m in monos:
            key = (len(e.dom), len(e.cod), e.masks, len(m.dom), len(m.cod), m.masks)
            if key not in squares:
                squares[key] = _orthogonal(e, m)
            if not ortho.count(*squares[key]):
                ortho.fail(
                    f"square over epi {e.dom} ->> {e.cod}, "
                    f"mono {m.dom} >-> {m.cod}"
                )
    return [img, ortho]


# Measured on a 2-vCPU host.  The contexts are listed, though of their
# objects only the first of each shape is built: the 14,336 contexts of nine
# two-atom types at arity 2 and their 194,560 objects, in 20 shapes, take
# 0.14-0.16 s for the whole suite at the default bounds, with a traced peak of
# 2.7 MiB.  For an object of r rows, o (+) o (+) o carries r^2 masks of r^3
# bits, and the peak follows those r^5 bits: 84 rows, the most allowed,
# peaked at 566 MB (one type at arity 1), 81 rows at 515 MB and 49 rows at
# 100 MB.
AXIOMS_MAX_CONTEXTS = 16_384
AXIOMS_MAX_MASK_BITS = 2**32


# Relations: the hom sweep takes about 2 us per relation or candidate
# adjoint counted below (272,171, most of them the adjoints of 3 x 3 rows, in
# 0.5 s), and the terminal sweep about 6 us per relation and subobject it
# counts, one at a time (262,142, for objects of up to 16 rows, in 1.5 s).
# Associativity counts the triples of every chain but decides each shape of
# chain once, a row of c at a time: two types of two rows, 65,536 triples in
# one shape of 4,096, take 1 ms; one chain of three-row objects, 2^27
# triples, took 105 s.  The limit sweeps decide each shape of cospan,
# parallel pair or pair of objects once, and each cone apex once per row
# count: the three of them take 3.6 ms on 16 objects, half of them of two
# rows (six two-atom types), and 0.8 ms on one-atom types.  So these two
# limits now over-count the work and only refuse early.
AXIOMS_MAX_RELATIONS = 2**19
AXIOMS_MAX_ASSOC_TRIPLES = 2**20
AXIOMS_MAX_LIMIT_OBJECTS = 16


def _context_classes(
    model: ModelInstance, max_arity: int
) -> Iterator[tuple[int, bool, int, int]]:
    """The contexts ``contexts_up_to`` lists, counted without building them:
    ``(arity, no extra support, rows of the full relation, contexts)``."""
    size = {t: len(d) for t, d in model.domains.items()}
    types = sorted(size)
    for arity in range(max_arity + 1):
        for typing in itertools.product(types, repeat=arity):
            rows = math.prod(size[t] for t in typing)
            free = [t for t in types if t not in typing]
            inhabited = 2 ** sum(1 for t in free if size[t])
            # every subset of the free types is an extra support, and one
            # with an empty domain empties the full relation
            yield arity, True, rows, 1
            yield arity, False, rows, inhabited - 1
            yield arity, False, 0, 2 ** len(free) - inhabited


def _refuse_large_bounds(model: ModelInstance, arity: int) -> None:
    """Raise before the context family or the masks of the Frobenius checks
    pass the limits above; both grow exponentially with the arity."""
    contexts = 0
    for *_, count in _context_classes(model, arity):
        contexts += count
        if contexts > AXIOMS_MAX_CONTEXTS:
            raise ReglogError(
                f"axioms at arity {arity} over {len(model.domains)} types sweeps "
                f"more than the limit of {AXIOMS_MAX_CONTEXTS} contexts"
            )
    rows = max(map(len, model.domains.values()), default=0) ** max(arity, 0)
    if rows**5 > AXIOMS_MAX_MASK_BITS:
        raise ReglogError(
            f"axioms at arity {arity}: an object of {rows} rows needs "
            f"{rows**5 >> 23} MiB of masks for o (+) o (+) o, over the limit "
            f"of {AXIOMS_MAX_MASK_BITS >> 23} MiB"
        )


def _refuse_long_sweeps(
    model: ModelInstance, bounds: AxiomBounds, classes: dict
) -> None:
    """Raise before the work that grows with ``max_tuple_space`` or
    ``limit_objects`` passes the limits above; the object ``classes`` of
    ``_object_classes`` say which shapes the per-shape sweeps meet, and the
    rest is counted from the domain sizes.

    The relations are those the per-shape sweeps enumerate, with each
    candidate adjoint the hom sweep tries and each subobject the terminal
    sweep lists.
    """
    cap = bounds.max_tuple_space
    homs = {
        (r1, r2, p1 and p2)
        for a1, r1, p1 in classes
        for a2, r2, p2 in classes
        if a1 + a2 <= bounds.hom_arity and r1 * r2 <= cap
    }
    spaces = {rows for _, rows, _ in classes if rows <= cap}
    relations = sum(2 ** (n + 1) for n in spaces)
    relations += sum(
        2 ** (r1 * r2) * (1 + 2 ** (r1 * r2) if plain else 1) for r1, r2, plain in homs
    )
    if relations > AXIOMS_MAX_RELATIONS:
        raise ReglogError(
            f"axioms at max_tuple_space {cap}: the per-shape sweeps try "
            f"{relations} relations, over the limit of {AXIOMS_MAX_RELATIONS} "
            "relations"
        )
    # _assoc_check chains the first two one-port objects, cut to
    # isqrt(max_tuple_space) rows, or the point
    side = math.isqrt(cap)
    chain = [min(len(model.domain(t)), side) for t in sorted(model.domains)[:2]]
    triples = sum(
        2 ** (a * b + b * c + c * d)
        for a, b, c, d in itertools.product(chain or [1], repeat=4)
    )
    if triples > AXIOMS_MAX_ASSOC_TRIPLES:
        raise ReglogError(
            f"axioms at max_tuple_space {cap}: associativity tries {triples} "
            f"triples, over the limit of {AXIOMS_MAX_ASSOC_TRIPLES} triples"
        )
    # _limit_family takes up to two rows of each full relation on at most
    # one port, then each empty one
    family = min(
        bounds.limit_objects,
        sum(n * (min(2, rows) + 1) for *_, rows, n in _context_classes(model, 1)),
    )
    if family > AXIOMS_MAX_LIMIT_OBJECTS:
        raise ReglogError(
            f"axioms at limit_objects {bounds.limit_objects}: the limit checks "
            f"sweep {family} objects, over the limit of "
            f"{AXIOMS_MAX_LIMIT_OBJECTS} objects"
        )


def check_regular_axioms(
    model: ModelInstance, bounds: AxiomBounds | None = None
) -> AxiomReport:
    """Run every bounded law check against one model and collect a report.

    A check's case count is the number of cases its law covers over the
    whole bounded family, for instance one per relation between each
    admitted pair of objects.  Every sweep decides each law once per shape
    (the rows of the objects; only the hom sweep's adjoint route, which runs
    where neither context has extra support, reads that support), and the
    limit sweeps each cone apex once per row count; the cases are counted
    for every object, pair, cospan, chain or apex of that shape; see
    ``_on_skeleton``.

    Each check's ``seconds`` is the wall time of the sweep that computed it;
    checks computed in one sweep share that sweep's time.  The pullback,
    equalizer and image sweeps are timed apart.  Raises
    ``ReglogError`` when a bound is negative (most sweeps would then try no
    case and pass unearned) or when ``max_arity`` is too large for the model
    (see ``_refuse_large_bounds``), both before building anything, and when
    ``max_tuple_space`` or ``limit_objects`` would make a sweep too long (see
    ``_refuse_long_sweeps``), before any sweep runs.
    """
    bounds = bounds or AxiomBounds()
    negative = [name for name, value in asdict(bounds).items() if value < 0]
    if negative:
        raise ReglogError(f"axiom bounds must not be negative: {', '.join(negative)}")
    _refuse_large_bounds(model, bounds.max_arity)
    cap = bounds.max_tuple_space
    classes = _object_classes(model, bounds.max_arity, cap)
    _refuse_long_sweeps(model, bounds, classes)
    family = _limit_family(model, bounds)
    objects = [(len(o), (o,), members) for o, members in classes.values()]
    small = [c for c in objects if c[0] <= cap]
    report = AxiomReport(bounds)
    for sweep, args in (
        (_on_skeleton, (_OBJECT_LAWS, objects, _object_laws)),
        (_on_skeleton, (_TERMINAL_LAWS, small, _terminal_laws)),
        (_hom_sweep_checks, (classes, bounds)),
        (_assoc_check, (model, bounds)),
        (_pullback_checks, (family,)),
        (_equalizer_checks, (family,)),
        (_image_checks, (family,)),
    ):
        started = time.perf_counter()
        checks = sweep(*args)
        seconds = time.perf_counter() - started
        for check in checks:
            check.seconds = seconds
        report.checks.extend(checks)
    return report


@dataclass
class FundamentalReport:
    """Census of the morphisms between two one-port objects with full predicates."""

    left_type: str
    right_type: str
    num_relations: int
    expected_relations: int
    num_functions: int
    expected_functions: int
    functions_are_graphs: bool

    @property
    def ok(self) -> bool:
        return (
            self.num_relations == self.expected_relations
            and self.num_functions == self.expected_functions
            and self.functions_are_graphs
        )

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "left_type": self.left_type,
            "right_type": self.right_type,
            "relations": self.num_relations,
            "expected_relations": self.expected_relations,
            "functions": self.num_functions,
            "expected_functions": self.expected_functions,
            "functions_are_graphs": self.functions_are_graphs,
        }

    def summary(self) -> str:
        return (
            f"relations {self.num_relations}/{self.expected_relations}, "
            f"functions {self.num_functions}/{self.expected_functions}, "
            f"graphs: {'yes' if self.functions_are_graphs else 'NO'}, "
            f"result: {'ok' if self.ok else 'FAIL'}"
        )


FUNDAMENTAL_MAX_CELLS = 16  # 2^16 relations take about a second


def fundamental_check(
    model: ModelInstance, left_type: str, right_type: str
) -> FundamentalReport:
    """Relations between full one-port objects are subsets of the product of
    domains; functions are exactly the graphs of maps between the domains.
    It classifies all 2^(|D|*|D'|) relations, one at a time, so it refuses
    more cells than ``FUNDAMENTAL_MAX_CELLS``."""
    d1, d2 = len(model.domain(left_type)), len(model.domain(right_type))
    if d1 * d2 > FUNDAMENTAL_MAX_CELLS:
        raise ReglogError(
            f"fundamental census of {d1}x{d2} = {d1 * d2} cells is over the "
            f"limit of {FUNDAMENTAL_MAX_CELLS} cells"
        )
    o1 = true_rel(mk_context((left_type,)), model)
    o2 = true_rel(mk_context((right_type,)), model)
    relations = functions = 0
    graphs = True
    for r in _relations(o1, o2):
        relations += 1
        if classify(r).function:
            functions += 1
            graphs = graphs and len(r.rows) == len(r.left_marginal()) == d1
    return FundamentalReport(
        left_type,
        right_type,
        relations,
        2 ** (d1 * d2),
        functions,
        d2**d1,
        graphs,
    )
