"""The benchmark's workloads: lists of calls into cdloops with exact oracles.

Each workload is built from a seed into a list of `Op`s.  Building does the
set-up work: it draws gammas and relabelings, writes the table files that
the CLI operations read, and computes every expected result from closed
forms or from the setup's own descriptors.  Each `Op.run` builds its own
descriptors, so `CDLoop._twist_memo` and `CentralProduct._twist_tables` are
paid on every call, as every CLI invocation pays them.

Operations call cdloops through its package namespace (`cd.<name>`) and
`cli` module, never through names bound here, so that the tracer's
rebinding sees them.  Work items are counted in the enumeration budget's
units (element or coset pairs and triples, N^2 table cells) from each
operation's inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

import numpy as np

import cdloops as cd
from cdloops import cli


@dataclass
class Op:
    """One call into cdloops, its work in budget units and its exact oracle.

    `run(state)` gets the results of the pass's earlier operations by name;
    `check(result, state)` says whether the result equals its oracle.
    """

    name: str
    items: int
    run: Callable[[dict], object]
    check: Callable[[object, dict], bool]
    max_elements: int | None = None


@dataclass(frozen=True)
class Shape:
    """A central product: m factors of depth n over Z of the given order."""

    m: int
    n: int
    z: int
    gammas: tuple[tuple[int, ...], ...]

    @classmethod
    def draw(cls, rng: random.Random, m: int, n: int, z: int) -> "Shape":
        return cls(m, n, z, tuple(tuple(rng.randrange(z) for _ in range(n)) for _ in range(m)))

    @classmethod
    def minus_one(cls, m: int, n: int, z: int) -> "Shape":
        return cls(m, n, z, ((z // 2,) * n,) * m)

    @property
    def tag(self) -> str:
        return f"m{self.m}n{self.n}z{self.z}"

    @property
    def order(self) -> int:
        return self.z << (self.m * self.n)

    def loop(self) -> cd.CDLoop:
        z = cd.make_scalar_group(self.z)
        return cd.CDLoop(z, tuple(z.scalar(g) for g in self.gammas[0]))

    def product(self):
        z = cd.make_scalar_group(self.z)
        return cd.make_product(z, [cd.CDLoop(z, tuple(z.scalar(g) for g in gs)) for gs in self.gammas])

    def rank(self, index: int) -> int:
        combined = index % (1 << (self.m * self.n))
        low = (1 << self.n) - 1
        return sum(1 for i in range(self.m) if (combined >> (self.n * i)) & low)


def budget(items: int) -> int | None:
    """The max_elements an operation needs: None within the default budget."""
    return items if items > cd.DEFAULT_MAX_ELEMENTS else None


def fixed_zero_perm(rng: random.Random, size: int) -> list[int]:
    """A random relabeling that keeps the identity at index 0, so that
    parse_loop_table's identity normalization leaves the table unchanged."""
    rest = list(range(1, size))
    rng.shuffle(rest)
    return [0] + rest


def same_report(expected) -> Callable[[object, dict], bool]:
    return lambda r, s: (r.degree, r.favorable, r.total) == (
        expected.degree, expected.favorable, expected.total)


def run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """In-process `cdl`; stdout and stderr are captured, not printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, json.loads(out.getvalue()) if rc == 0 else None


def is_isomorphism(left: np.ndarray, right: np.ndarray, mapping) -> bool:
    """The benchmark's own full N^2 check that mapping carries left onto right."""
    if mapping is None:
        return False
    p = np.asarray(mapping, dtype=np.int64)
    if p.shape != (len(left),) or not np.array_equal(np.sort(p), np.arange(len(left))):
        return False
    return bool(np.array_equal(p[left], right[p[:, None], p[None, :]]))


def decomposes_as(shape: Shape) -> Callable[[object, dict], bool]:
    """Oracle for `cdl decompose` output: shape, center size and rank census."""
    def check(result, state) -> bool:
        rc, payload = result
        return (rc == 0 and payload["m"] == shape.m and payload["z_size"] == shape.z
                and payload["rank_histogram"] == cd.rank_census_closed(shape.m, shape.n, shape.z))
    return check


# -- degrees -------------------------------------------------------------------


def degrees(rng: random.Random, workdir: Path, small: bool) -> list[Op]:
    """Descriptor-level surveys; no tables are built."""
    if small:
        surveys = [(1, 4, 2), (2, 2, 4), (2, 3, 2)]
        image, assoc = (2, 2, 4), (1, 3, 2)
    else:
        # m*n = 10 is the largest size the default budget admits; m=3,n=4
        # (4096 cosets) needs a raised budget.
        surveys = [(1, 10, 2), (2, 5, 4), (3, 4, 2)]
        image, assoc = (2, 5, 4), (1, 6, 2)
    ops = []
    for m, n, z in surveys:
        shape = Shape.draw(rng, m, n, z)
        items = (1 << (m * n)) ** 2
        me = budget(items)
        ops.append(Op(
            f"commutativity_degree_brute:{shape.tag}", items,
            lambda s, sh=shape, me=me: cd.commutativity_degree_brute(sh.product(), me),
            same_report(cd.commutativity_degree_closed(m, n, z)), me))

    shape = Shape.draw(rng, *image)
    cosets = 1 << (shape.m * shape.n)
    sizes = [cd.b_k_closed(shape.n, shape.rank(c)) * cosets for c in range(cosets)]
    signs = {0, shape.z // 2} if shape.n >= 2 else {0}
    ops.append(Op(
        f"commutant_coset_sizes:{shape.tag}", cosets**2,
        lambda s, sh=shape: cd.commutant_coset_sizes(sh.product()),
        lambda r, s, want=sizes: r == want))
    ops.append(Op(
        f"commutator_exponent_image:{shape.tag}", cosets**2,
        lambda s, sh=shape: cd.commutator_exponent_image(sh.product()),
        lambda r, s, want=signs: r == want))

    shape = Shape.draw(rng, *assoc)
    cosets = 1 << (shape.m * shape.n)
    signs = {0, shape.z // 2} if shape.n >= 3 else {0}
    me = budget(cosets**3)
    ops.append(Op(
        f"associator_exponent_image:{shape.tag}", cosets**3,
        lambda s, sh=shape, me=me: cd.associator_exponent_image(sh.product(), me),
        lambda r, s, want=signs: r == want, me))
    return ops


# -- elements ------------------------------------------------------------------


def elements(rng: random.Random, workdir: Path, small: bool) -> list[Op]:
    """Element-level walks through the memoized per-element twist."""
    if small:
        moufang, failing, assoc, census = (1, 2, 4), (1, 4, 2), (1, 3, 2), (2, 2, 4)
    else:
        moufang, failing, assoc, census = (1, 3, 8), (1, 5, 2), (1, 6, 2), (3, 4, 4)
    ops = []
    # (-1,...,-1) loops up to n=3 are Moufang and di-associative, so these
    # walks run to the end; from n=4 on the Moufang identity fails early.
    shape = Shape.minus_one(*moufang)
    ops.append(Op(
        f"moufang_identity_holds:{shape.tag}", shape.order**3,
        lambda s, sh=shape: cd.moufang_identity_holds(sh.loop()),
        lambda r, s: r is True))
    ops.append(Op(
        f"is_di_associative:{shape.tag}", shape.order**2,
        lambda s, sh=shape: cd.is_di_associative(sh.loop()),
        lambda r, s: r is True))
    shape = Shape.minus_one(*failing)
    ops.append(Op(
        f"moufang_identity_holds:{shape.tag}", shape.order**3,
        lambda s, sh=shape: cd.moufang_identity_holds(sh.loop()),
        lambda r, s: r is False))

    shape = Shape.minus_one(*assoc)
    me = budget(shape.order**3)
    ops.append(Op(
        f"associativity_degree_brute:{shape.tag}", shape.order**3,
        lambda s, sh=shape, me=me: cd.associativity_degree_brute(sh.loop(), me),
        same_report(cd.associativity_degree_closed(shape.n, shape.z)), me))

    shape = Shape.draw(rng, *census)
    ops.append(Op(
        f"rank_census_brute:{shape.tag}", shape.order,
        lambda s, sh=shape: cd.rank_census_brute(sh.product()),
        lambda r, s, want=cd.rank_census_closed(shape.m, shape.n, shape.z): r == want))
    for index in sorted(rng.sample(range(shape.order), 3)):
        size = cd.b_k_closed(shape.n, shape.rank(index)) * shape.order
        ops.append(Op(
            f"commutant:{shape.tag}:{index}", shape.order,
            lambda s, sh=shape, i=index: commutant_of(sh.product(), i),
            lambda r, s, want=size: len(r) == want))
    return ops


def commutant_of(A, index: int):
    return cd.commutant(A, A.element_at(index))


# -- tables --------------------------------------------------------------------


def element_orders_closed(shape: Shape) -> list[int]:
    """Left-power orders from the descriptor: a scalar g^s has the order of s
    in Z; x = g^s*b(c) with c != 0 squares to the scalar w = g^(2s + t(c,c))
    and its odd powers stay off Z, so its order is twice that of w."""
    A = shape.product()
    cosets, z = A.coset_count, shape.z

    def scalar_order(e: int) -> int:
        e %= z
        return z // gcd(e, z) if e else 1

    square = [sum(d.twist_exp(e, e) for d, e in zip(A.factors, A.split_mask(c)))
              for c in range(cosets)]
    return [scalar_order(s) if c == 0 else 2 * scalar_order(2 * s + square[c])
            for s in range(z) for c in range(cosets)]


def tables(rng: random.Random, workdir: Path, small: bool) -> list[Op]:
    """Table build, serialize, parse/validate, recovery and invariants."""
    shapes = [(1, 3, 2), (2, 3, 2)] if small else [(2, 4, 4), (3, 3, 2), (2, 4, 2), (1, 8, 4)]
    ops = []
    cli_copy = None
    for dims in shapes:
        shape = Shape.draw(rng, *dims)
        N = shape.order
        A = shape.product()
        orders = element_orders_closed(shape)
        samples = [(rng.randrange(N), rng.randrange(N)) for _ in range(64)]
        cells = [A.element_index(A.pmul(A.element_at(i), A.element_at(j))) for i, j in samples]
        for copy, perm in (("canonical", list(range(N))), ("relabelled", fixed_zero_perm(rng, N))):
            tag = f"{shape.tag}:{copy}"
            p = np.asarray(perm)
            want_orders = [0] * N
            for i, o in enumerate(orders):
                want_orders[perm[i]] = o

            def build(s, sh=shape, p=p, copy=copy):
                t = cd.to_table(sh.product())
                return t if copy == "canonical" else t.relabel(p)

            def built(r, s, N=N, p=p, samples=samples, cells=cells) -> bool:
                return r.size == N and all(
                    r.table[p[i], p[j]] == p[c] for (i, j), c in zip(samples, cells))

            ops += [
                Op(f"to_table:{tag}", N * N, build, built),
                Op(f"serialize_loop_table:{tag}", N * N,
                   lambda s, t=tag: cd.serialize_loop_table(s[f"to_table:{t}"]),
                   lambda r, s, N=N: r.startswith(f"loop-table v1 {N}\n") and r.count("\n") == N + 1),
                Op(f"parse_loop_table:{tag}", N * N,
                   lambda s, t=tag: cd.parse_loop_table(s[f"serialize_loop_table:{t}"]),
                   lambda r, s, t=tag: np.array_equal(r.table, s[f"to_table:{t}"].table)),
                Op(f"recover_factors:{tag}", N * N,
                   lambda s, t=tag, n=shape.n: cd.recover_factors(s[f"parse_loop_table:{t}"], n),
                   lambda r, s, sh=shape: (
                       r.m == sh.m and r.z_size == sh.z
                       and r.rank_histogram() == cd.rank_census_closed(sh.m, sh.n, sh.z)
                       and all(len(f) == sh.z << sh.n for f in r.subsets))),
                Op(f"element_orders:{tag}", N,
                   lambda s, t=tag: s[f"parse_loop_table:{t}"].element_orders(),
                   lambda r, s, want=want_orders: r == want),
            ]
            if copy == "relabelled" and cli_copy is None:
                cli_copy = (shape, tag, A, perm)

    shape, tag, A, perm = cli_copy
    path = workdir / f"{tag.replace(':', '-')}.txt"
    path.write_text(cd.serialize_loop_table(cd.to_table(A).relabel(perm)))
    ops.append(Op(
        f"cli.decompose:{tag}", 2 * shape.order**2,
        lambda s, a=str(path), n=shape.n: run_cli(["decompose", "--table", a, "--n", str(n)]),
        decomposes_as(shape)))
    return ops


# -- iso -----------------------------------------------------------------------


def iso(rng: random.Random, workdir: Path, small: bool) -> list[Op]:
    """Isomorphism search on relabelled copies, bare and through the CLI."""
    if small:
        drawn, count, panel, matches = [(1, 3, 2), (1, 2, 4)], 2, (1, 3, 2), [(2, 3, 2)]
    else:
        drawn, count, panel, matches = [(1, 4, 4), (1, 3, 8), (2, 3, 2)], 6, (1, 5, 2), [(2, 4, 4)] * 2
    pairs = [(Shape.draw(rng, *dims), rng) for dims in drawn for _ in range(count)]
    # Search time has a heavy tail over relabelings: 0.06 s to 7.5 s on
    # (-1,...,-1)_Z2 at n=5 over 12 of them, and 0.44 s to 2.4 s for
    # `--match-against` at m=2,n=4 (2-core AMD EPYC), too wide to average out
    # within a run.  Those instances come from a stream that ignores the
    # seed, so the tail is in every run at the same cost.
    fixed = random.Random("cdbench-iso-panel")
    pairs += [(Shape.minus_one(*panel), fixed)] * 2
    ops = []
    for k, (shape, stream) in enumerate(pairs):
        left = cd.to_table(shape.product()).table
        perm = np.asarray(fixed_zero_perm(stream, len(left)))
        right = cd.AbstractLoop(left, validate=False).relabel(perm).table
        ops.append(Op(
            f"find_isomorphism:{shape.tag}:{k}", len(left) ** 2,
            lambda s, a=left, b=right: cd.find_isomorphism(cd.AbstractLoop(a), cd.AbstractLoop(b)),
            lambda r, s, a=left, b=right: is_isomorphism(a, b, r)))

    for k, dims in enumerate(matches):
        shape = Shape.draw(fixed, *dims)
        table = cd.to_table(shape.product())
        paths = []
        for side in ("left", "right"):
            path = workdir / f"match-{shape.tag}-{k}-{side}.txt"
            path.write_text(cd.serialize_loop_table(table.relabel(fixed_zero_perm(fixed, table.size))))
            paths.append(str(path))
        argv = ["decompose", "--table", paths[0], "--n", str(shape.n), "--match-against", paths[1]]

        def matched(r, s, sh=shape) -> bool:
            rc, payload = r
            return (decomposes_as(sh)(r, s)
                    and sorted(payload["match"]["sigma"] or []) == list(range(sh.m)))

        ops.append(Op(f"cli.decompose.match:{shape.tag}:{k}", 4 * shape.order**2,
                      lambda s, argv=argv: run_cli(argv), matched))
    return ops


BUILDERS = {"degrees": degrees, "elements": elements, "tables": tables, "iso": iso}


def build(workload: str, seed: int, workdir: Path, small: bool = False) -> list[Op]:
    """The workload's operation list for this seed; the same seed gives the same list."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir, small)
