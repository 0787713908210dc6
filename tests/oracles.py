"""Independent oracles that the unit tests compare the library against.

Each one decides a question by a route the library does not take: the
defining recursion of the alternating product, the face and modular
characterizations of abelian cubes, every completion of a corner as a
coset of the top subgroup, completion by scanning every point,
translations certified one arrow at a time or by their definition in
every dimension, the translation search as a recursion (accepting what
the library accepts, or certifying every bijection it reaches),
closures under right multiplication and weight-0 derivatives kept by
a frontier of their own, the membership of an arrow by the filtered
splitting (with the shifted filtration it reads, which the library
never builds), cube morphisms checked cube by cube (between cubespaces
up to n_max, between filtered groups in every dimension up to deg + 1),
morphism sections by one linear system and by a search over every
section, translation lifts through the bundle of translation pairs T*
(the T* route) and by a search over its sections, the upper-face
factorization and its multiply-out by filtering every vertex pair,
corner completion face by face, the structure group from local
translations with its action found by scanning every point, the
degree-k bundle check by grouping cubes by their projection, invariant
factors from p-torsion counts, and simplicial extension over supports
held as sets.
"""

import functools
import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Dict, List, Optional, Sequence

from nilcube import cubes, poly
from nilcube.cohomology import cross_section_cocycle, is_coboundary
from nilcube.cubegroups import CornerError, Reject, _cube_dimension, _require_corner_keys, \
    _require_elements, arrow, complete_corner, enumerate_cubes, factorize, is_cube, \
    multiply_out, sigma
from nilcube.cubespace import ArrowCubespace, Cubespace
from nilcube.groups import FiniteGroup, Filtration, TableGroup
from nilcube.structure import ExtensionData, _one_flip_corner, factor, related_k, \
    structure_group
from nilcube.translations import _arrows_are_cubes, is_translation, translation_certifier


def sigma_recursive(values: Sequence[int], n: int, G: FiniteGroup) -> int:
    """Reference for cubegroups.sigma, by the defining recursion
    sigma_n(g) = sigma_{n-1}(g(.,1))^{-1} sigma_{n-1}(g(.,0))."""
    if n == 0:
        return values[0]
    half = 1 << (n - 1)
    s0 = sigma_recursive(values[:half], n - 1, G)
    s1 = sigma_recursive(values[half:], n - 1, G)
    return G.op(G.inv(s1), s0)


def enumerate_completions(corner: dict, n: int, filt: Filtration):
    """All cubes agreeing with the corner off 1^n: the canonical
    completion right-translated at 1^n by the level-n subgroup."""
    values = complete_corner(corner, n, filt)
    G = filt.group
    top = (1 << n) - 1
    out = []
    for g in sorted(filt.subgroup(n)):
        vals = list(values)
        vals[top] = G.op(values[top], g)
        out.append(tuple(vals))
    return out


def is_standard_abelian_cube(values: Sequence[int], A: FiniteGroup) -> bool:
    """Three equivalent tests, all evaluated, asserted to agree:
    (i) q(v) = x + v.h for some x and edge increments h;
    (ii) the modular law q(v or w) + q(v and w) = q(v) + q(w);
    (iii) every 2-face alternating sum vanishes."""
    n = _cube_dimension(values)
    # (i)
    x = values[0]
    h = [A.op(A.inv(x), values[1 << i]) for i in range(n)]
    rep = True
    for v in range(1 << n):
        acc = x
        for i in range(n):
            if (v >> i) & 1:
                acc = A.op(acc, h[i])
        if acc != values[v]:
            rep = False
            break
    # (ii)
    modular = True
    for v in range(1 << n):
        for w in range(1 << n):
            lhs = A.op(values[v | w], values[v & w])
            rhs = A.op(values[v], values[w])
            if lhs != rhs:
                modular = False
                break
        if not modular:
            break
    # (iii)
    sigma2 = True
    if n >= 2:
        for tbl in cubes.face_index_tables(2, n):
            if sigma([values[t] for t in tbl], 2, A) != 0:
                sigma2 = False
                break
    assert rep == modular == sigma2, "abelian cube characterizations disagree"
    return rep


def is_degree_k_abelian_cube(values: Sequence[int], A: FiniteGroup, k: int) -> bool:
    """Cube of the maximal degree-k structure: every (k+1)-face has
    vanishing alternating sum.  Maps of dimension <= k are all cubes.
    The oracle for enumerate_cubes(maximal_degree_k_filtration(A, k), n)."""
    n = _cube_dimension(values)
    if n <= k:
        return True
    return all(sigma([values[t] for t in tbl], k + 1, A) == 0
               for tbl in cubes.face_index_tables(k + 1, n))


def complete_corner_bruteforce(X, n: int, corner_values):
    """All completions of a corner of the cubespace X, after validating
    the corner premise."""
    corner_values = tuple(corner_values)
    # the (n-1)-faces come in pairs {i: 0}, {i: 1}, i = 0..n-1
    for i, face in enumerate(cubes.face_getters(n - 1, n)[0::2]):
        if not X.membership(n - 1, face(corner_values)):
            raise ValueError("not a corner: the face with coordinate %d = 0 is not a cube" % i)
    return X.completions(n, corner_values)


def is_translation_by_arrows(X, alpha: Sequence[int], i: int) -> bool:
    """Reference for translations.is_translation: <q, alpha o q>_i is a
    cube for every (step+1)-cube q, asked of X.membership one arrow at a
    time (so through the face criterion, or a cube set of the arrow
    dimension when X holds one)."""
    n = X.step + 1
    return all(X.membership(n + i, arrow(q, tuple(alpha[x] for x in q), n, i))
               for q in X.cubes(n))


def is_translation_by_definition(X, alpha: Sequence[int], i: int, n_max: int) -> bool:
    """Reference for translations.is_translation by the raw definition:
    <q, alpha o q>_i is an (n+i)-cube for every n-cube q of every
    dimension n <= n_max, not only n = step + 1."""
    return all(_arrows_are_cubes(X, alpha, n, i) for n in range(n_max + 1))


def shift_filtration(filt: Filtration, ell: int) -> Filtration:
    """The shifted filtration G_{+ell}, with d-th term G_{d+ell}.  Its
    0-th term may be a proper subgroup of the ambient group (non-ergodic
    cube sets)."""
    if ell < 0:
        raise ValueError("shift must be nonnegative")
    chain = tuple(filt.subgroup(d + ell) for d in range(len(filt.chain)))
    return Filtration(filt.group, chain)


def arrow_membership(q0, q1, n: int, k: int, filt: Filtration) -> bool:
    """Reference for the membership of the k-arrow <q0, q1>_k in
    Cu^{n+k} of a filtered group, by the filtered splitting: q0 a cube
    of filt, and q0^{-1} q1 a cube of the shifted filtration G_{+k}."""
    G = filt.group
    if not is_cube(q0, filt):
        return False
    diff = tuple(G.op(G.inv(a), b) for a, b in zip(q0, q1))
    return is_cube(diff, shift_filtration(filt, k))


def _translation_search_by_recursion(X, i: int, accept):
    """The full bijections that translations.translation_group's search
    reaches, as the recursion it was written as before it ran on
    cubespace.depth_first, kept when accept(alpha) holds."""
    size = X.size
    candidates = [[y for y in range(size) if related_k(X, i - 1, x, y)] for x in range(size)]
    pairs1 = X.cubes(1)
    out = []
    alpha = [-1] * size
    used = [False] * size

    def pair_ok(x, z):
        return all(X.membership(1 + i, arrow((a, b), (alpha[a], alpha[b]), 1, i))
                   for (a, b) in ((x, z), (z, x)) if (a, b) in pairs1)

    def rec(x):
        if x == size:
            if accept(tuple(alpha)):
                out.append(tuple(alpha))
            return
        for y in candidates[x]:
            if used[y]:
                continue
            alpha[x] = y
            used[y] = True
            if all(pair_ok(x, z) for z in range(x)):
                rec(x + 1)
            used[y] = False
        alpha[x] = -1

    rec(0)
    return out


def translation_group_by_recursion(X, i: int):
    """Reference for translations.translation_group: the recursive search,
    accepting a bijection that is one of X.known_translations(i) or that
    translation_certifier, built at the first other bijection, certifies."""
    known = X.known_translations(i)
    certifier = functools.lru_cache(maxsize=None)(lambda: translation_certifier(X, i))
    return _translation_search_by_recursion(
        X, i, lambda alpha: alpha in known or certifier()(alpha))


def translation_group_certifying_every_leaf(X, i: int):
    """Reference for translations.translation_group: the same search and
    pruning, but every full bijection it reaches is asked of
    translation_certifier, the space's own left multiplications too."""
    return _translation_search_by_recursion(X, i, translation_certifier(X, i))


def subgroup_closure_by_frontier(G: FiniteGroup, generators) -> frozenset:
    """Reference for groups.subgroup_closure: the products of generators
    found from the identity by a frontier of its own."""
    seen = {0}
    frontier = [0]
    gens = list(generators)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.op(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def is_polynomial_by_frontier(g: Sequence[int], hfilt: Filtration, gfilt: Filtration) -> bool:
    """Reference for poly.is_polynomial: each weight level closed under
    weight-0 derivatives by a frontier of its own, raising ClosureBlowup
    when an added map takes the level past poly.CLOSURE_CAP."""
    H, G = hfilt.group, gfilt.group
    top = gfilt.degree + 1
    level_sets = {0: {tuple(g)}}
    h0 = sorted(hfilt.subgroup(0)) if hfilt.subgroup(0) != hfilt.subgroup(1) else ()
    for w in range(top + 1):
        current = level_sets.get(w, set())
        frontier = list(current) if h0 else []
        while frontier:
            f = frontier.pop()
            for h in h0:
                df = poly.derivative(f, H, G, h)
                if df not in current:
                    current.add(df)
                    frontier.append(df)
                    if len(current) > poly.CLOSURE_CAP:
                        raise poly.ClosureBlowup("derivative closure exceeded cap")
        Gw = gfilt.subgroup(w)
        if any(val not in Gw for f in current for val in f):
            return False
        for i in range(1, min(hfilt.degree, top - w) + 1):
            level_sets.setdefault(w + i, set()).update(
                poly.derivative(f, H, G, h) for f in current for h in sorted(hfilt.subgroup(i)))
    return True


def factorize_by_vertex_filter(values: Sequence[int], filt: Filtration):
    """Reference for cubegroups.factorize: each nontrivial coefficient is
    multiplied into the running product of every vertex w >= i, found by
    testing all vertices from i up (about 4^n/2 pairs)."""
    n = _cube_dimension(values)
    G = filt.group
    _require_elements(G, values, "vertex")
    thresholds = [bin(v).count("1") for v in range(1 << n)]
    coeffs = [0] * (1 << n)
    partial = [0] * (1 << n)
    for i in range(1 << n):
        g = G.op(G.inv(partial[i]), values[i])
        if g not in filt.subgroup(thresholds[i]):
            return Reject(i, g, thresholds[i])
        coeffs[i] = g
        if g != 0:
            for w in range(i, 1 << n):
                if w & i == i:
                    partial[w] = G.op(partial[w], g)
    return coeffs


def multiply_out_by_vertex_filter(coeffs: Sequence[int], n: int, G: FiniteGroup):
    """Reference for cubegroups.multiply_out: q(w) is the product, over
    v = 0..w in increasing order, of the coefficients with v <= w."""
    values = [0] * (1 << n)
    for w in range(1 << n):
        acc = 0
        for v in range(w + 1):
            if w & v == v:
                acc = G.op(acc, coeffs[v])
        values[w] = acc
    return tuple(values)


def complete_corner_by_faces(corner: dict, n: int, filt: Filtration):
    """Reference for cubegroups.complete_corner: factorize each face
    {x_i = 0} on its own, raising a CornerError at the first that is not
    a cube, then multiply all 2^n coefficients out with the identity at
    1^n.  Same ValueErrors, in the same order."""
    if n < 1:
        raise CornerError("corners of dimension 0 are disallowed")
    G = filt.group
    _require_corner_keys(corner, n)
    _require_elements(G, corner, "corner vertex")
    coeffs = [0] * (1 << n)
    # the (n-1)-faces come in pairs {i: 0}, {i: 1}, i = 0..n-1
    for i, tbl in enumerate(cubes.face_index_tables(n - 1, n)[0::2]):
        face = factorize([corner[t] for t in tbl], filt)
        if isinstance(face, Reject):
            raise CornerError("corner premise fails on the face with coordinate %d = 0" % i)
        for t, c in zip(tbl, face):
            coeffs[t] = c
    return multiply_out(coeffs, n, G)


def local_translation(X, k: int, x0: int, x1: int):
    """The fibre translation sending x0 to x1 on a k-step space: y0 in
    the level-(k-1) class of x0 maps to the unique completion of the
    one-flip corner.  Returns a dict."""
    out = {}
    for y0 in range(X.size):
        if not related_k(X, k - 1, x0, y0):
            continue
        sols = X.completions(k + 1, _one_flip_corner(k, x0, x1, y0))
        if len(sols) != 1:
            raise ValueError(
                "completion not unique (%d found): the space is not %d-step" % (len(sols), k)
            )
        out[y0] = sols[0]
    return out


@dataclass
class LocalTranslationGroup:
    """The structure group of the oracle below, indexed by the sorted
    fibre through the point 0."""

    fibre: List[int]  # fibre[a]: the point that element a moves 0 to
    group: TableGroup
    action: List[List[int]]  # action[a][x]: x moved by the element a


def structure_group_by_local_translations(X, k: int) -> LocalTranslationGroup:
    """Reference for structure.structure_group: y1 + y2 is the local
    translation taking the base point b to y1, applied to y2, and ya
    moves x to the one point z that makes the arrowed one-flip map (b
    except ya at 0^k below, x except z at 0^k above) a cube, found by
    asking membership of every point.  No second addition check."""
    b = 0
    fibre = sorted(y for y in range(X.size) if related_k(X, k - 1, b, y))
    index_in_fibre = {y: i for i, y in enumerate(fibre)}
    trans = {y1: local_translation(X, k, b, y1) for y1 in fibre}
    table = [[index_in_fibre[trans[y1][y2]] for y2 in fibre] for y1 in fibre]
    group = TableGroup(table)
    if not group.is_abelian():
        raise ValueError("structure candidate is not abelian")
    half = 1 << k
    action = []
    for ya in fibre:
        row = []
        for x in range(X.size):
            zs = []
            for z in range(X.size):
                vals = [b] * half + [x] * half
                vals[0] = ya
                vals[half] = z
                if X.membership(k + 1, vals):
                    zs.append(z)
            if len(zs) != 1:
                raise ValueError("action not well defined at (%d, %d): %d candidates"
                                 % (ya, x, len(zs)))
            row.append(zs[0])
        action.append(row)
    return LocalTranslationGroup(fibre, group, action)


def verify_degree_k_bundle_by_projection(ext: ExtensionData, n_max: int):
    """Reference for structure.verify_degree_k_bundle: the same witness
    or None, with Y's cubes grouped by their projection in every
    dimension and the cubes over each base cube compared with the
    degree-k perturbations of any one of them, base cubes taken in
    sorted order."""
    Y, X, A = ext.Y, ext.X, ext.A
    moves = [[ext.act(a, y) for y in range(Y.size)] for a in range(A.order)]  # [a][y]
    for y in range(Y.size):
        seen = {row[y] for row in moves}
        if len(seen) != A.order or any(ext.pi[p] != ext.pi[y] for p in seen):
            return ("action", y)
    project = ext.pi.__getitem__
    for n in range(1, n_max + 1):
        ycubes = Y.cubes(n)
        xcubes = X.cubes(n)
        by_proj: Dict[tuple, set] = {}
        for q in ycubes:
            pq = tuple(map(project, q))
            if pq not in xcubes:
                return ("projection-not-cube", n, q)
            by_proj.setdefault(pq, set()).add(q)
        if set(by_proj) != xcubes:
            missing = sorted(xcubes - set(by_proj))[0]
            return ("projection-not-onto", n, missing)
        acubes = ext.fibre_space.cubes(n)
        for pq, qs in sorted(by_proj.items()):
            ref = next(iter(qs))
            pert = {tuple(map(getitem, map(moves.__getitem__, av), ref)) for av in acubes}
            if pert != qs:
                return ("fibre-correspondence", n, pq)
    return None


def is_cube_morphism_in_every_dimension(g: Sequence[int], hfilt: Filtration,
                                        gfilt: Filtration):
    """Reference for poly.is_cube_morphism: g o q is a cube of G. for
    every cube q of H. of every dimension up to deg(G.) + 1, dimension
    by dimension.  (True, None), or (False, the first cube whose image
    is not)."""
    for n in range(gfilt.degree + 2):
        for q in enumerate_cubes(hfilt, n):
            if not is_cube(tuple(g[x] for x in q), gfilt):
                return (False, q)
    return (True, None)


def analyze_morphism(f: Sequence[int], X, Y, n_max: int):
    """Whether f maps every cube of X to a cube of Y up to dimension
    n_max: (True, None) or (False, the first cube whose image is not)."""
    for n in range(n_max + 1):
        for q in X.cubes(n):
            if not Y.membership(n, tuple(f[x] for x in q)):
                return (False, q)
    return (True, None)


def sections(ext):
    """Every section of the projection ext.pi, in lexicographic order."""
    fibres = [[y for y in range(ext.Y.size) if ext.pi[y] == x] for x in range(ext.X.size)]
    return itertools.product(*fibres)


def morphism_section_by_search(ext, n_max: int):
    """Reference for morphism_section: the first section that
    analyze_morphism accepts up to dimension n_max, or None."""
    return next((list(s) for s in sections(ext) if analyze_morphism(s, ext.X, ext.Y, n_max)[0]),
                None)


def morphism_section(ext: ExtensionData):
    """A section of ext.pi that is a cube morphism X -> Y, or None when
    there is none.  One exists exactly when the cocycle of any cross
    section s is a coboundary (Antolin Camarena & Szegedy); for s the
    first point of each fibre and rho_s the coboundary of f, s moved by
    -f is one."""
    s = [ys[0] for ys in ext.fibres]
    f = is_coboundary(cross_section_cocycle(ext, s))
    if f is None:
        return None
    return [ext.act(ext.A.inv(fx), y) for fx, y in zip(f, s)]


class RestrictedCubespace(Cubespace):
    """A subset of a cubespace with the induced cube sets: the pairs T
    of a translation bundle."""

    def __init__(self, X: Cubespace, points: Sequence[int]):
        self.X = X
        self.points = list(points)
        super().__init__(len(self.points), step=X.step)

    def _membership(self, n, values):
        return self.X.membership(n, tuple(self.points[v] for v in values))


@dataclass
class TranslationBundle:
    """For a k-step space X and a height-i translation abar of the
    (k-1)-factor X_{k-1}: T is the subspace of X |><|_i X of pairs
    (x0, x1) with pi(x1) = abar(pi(x0)).  extension is its (k-1)-factor
    Tstar as a degree-(k-i) extension of X_{k-1}: it projects through
    the first coordinate, and the top structure group of X acts through
    the second."""

    T: RestrictedCubespace
    extension: ExtensionData  # Tstar -> X_{k-1}, both ImageCubespaces

    def covering(self, section: Sequence[int]) -> Optional[tuple]:
        """beta for a section of Tstar -> X_{k-1}: beta(x) is the unique
        partner of x in the class section(pi(x)); None when some point
        has no partner there or more than one."""
        size, base, Tstar = self.T.X.X.size, self.extension.X, self.extension.Y
        beta = []
        for x in range(size):
            pairs = (divmod(self.T.points[p], size) for p in Tstar.fibres[section[base.project(x)]])
            partners = {x1 for x0, x1 in pairs if x0 == x}
            if len(partners) != 1:
                return None
            beta.append(partners.pop())
        return tuple(beta)

    def section(self, beta: Sequence[int]) -> list:
        """The map pi(x) -> the Tstar class of (x, beta(x)) that a beta
        covering abar induces, read at the first x over each base point."""
        arrows, base, Tstar = self.T.X, self.extension.X, self.extension.Y
        index = {p: j for j, p in enumerate(self.T.points)}
        return [Tstar.project(index[arrows.encode(xs[0], beta[xs[0]])]) for xs in base.fibres]


def translation_bundle(X, abar: Sequence[int], i: int = 1) -> TranslationBundle:
    """The bundle of abar.  X must be its own k-factor, k its step, as
    structure.decompose requires: the top structure group acts there.
    The action of the structure group on a pair p of T must not depend
    on the representative p of its Tstar class (else a ValueError); the
    cube axioms of the bundle are not checked."""
    k = X.step
    base = factor(X, k - 1)
    if not is_translation(base, abar, i):
        raise ValueError("abar is not a height-%d translation of the factor" % i)
    A = ArrowCubespace(X, i)
    pts = [
        A.encode(x0, x1)
        for x0 in range(X.size)
        for x1 in range(X.size)
        if base.project(x1) == abar[base.project(x0)]
    ]
    T = RestrictedCubespace(A, pts)
    Tstar = factor(T, k - 1)
    gamma = []
    for cls in Tstar.fibres:
        firsts = {base.project(T.points[p] // X.size) for p in cls}
        if len(firsts) != 1:
            raise ValueError("first-coordinate projection is not constant on classes")
        gamma.append(firsts.pop())
    top = structure_group(factor(X, k), k)
    pair_class = {T.points[p]: c for c, cls in enumerate(Tstar.fibres) for p in cls}

    def moved(a, p):
        x0, x1 = divmod(T.points[p], X.size)
        return pair_class[A.encode(x0, top.act(a, x1))]

    for c, cls in enumerate(Tstar.fibres):
        for a in top.A.elements():
            if len({moved(a, p) for p in cls}) != 1:
                raise ValueError("Tstar is not a bundle over the factor: %r"
                                 % (("action-not-well-defined", c, a),))
    ext = ExtensionData(Tstar, base, gamma, top.A, k - i,
                        lambda a, c: moved(a, Tstar.fibres[c][0]))
    return TranslationBundle(T, ext)


def try_lift_translation_by_tstar(X, abar: Sequence[int], i: int):
    """Reference for translations.try_lift_translation (the T* route):
    the beta that the cube-preserving section of Tstar -> X_{k-1} from
    morphism_section covers, or None when there is no such section."""
    tb = translation_bundle(X, abar, i)
    m = morphism_section(tb.extension)
    return None if m is None else tb.covering(m)


def try_lift_translation_by_search(X, abar: Sequence[int], i: int):
    """Reference for translations.try_lift_translation: (beta or None,
    the number of sections examined).  Each section of Tstar -> X_{k-1}
    that analyze_morphism accepts up to dimension 3 gives a candidate
    beta, beta(x) the unique partner of x in its class, and the first
    that is a certified height-i translation covering abar is the lift;
    when none is, every section has been examined."""
    tb = translation_bundle(X, abar, i)
    base, Tstar = tb.extension.X, tb.extension.Y
    searched = 0
    for choice in sections(tb.extension):
        searched += 1
        if not analyze_morphism(choice, base, Tstar, 3)[0]:
            continue
        beta = tb.covering(choice)
        if (beta is not None and sorted(beta) == list(range(X.size)) and is_translation(X, beta, i)
                and all(base.project(beta[x]) == abar[base.project(x)] for x in range(X.size))):
            return beta, searched
    return None, searched


def _prime_factors(n: int):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def abelian_invariants_by_torsion(G: FiniteGroup):
    """Reference for groups.abelian_invariants: the invariant factors
    of a finite abelian group from its p-torsion counts."""
    if not G.is_abelian():
        raise ValueError("group is not abelian")
    n = G.order
    if n == 1:
        return ()
    primary = {}  # prime -> exponents of cyclic p-power factors, descending
    for p in _prime_factors(n):
        # s[i] = log_p #{x : p^i x = 0}; s[i] - s[i-1] counts the cyclic
        # p-factors of order >= p^i
        s = [0]
        while True:
            i = len(s)
            tor = sum(1 for a in G.elements() if G.power(a, p ** i) == 0)
            e = 0
            while p ** e < tor:
                e += 1
            assert p ** e == tor
            if e == s[-1]:
                break
            s.append(e)
        counts = [s[i] - s[i - 1] for i in range(1, len(s))]
        exps = []
        for i, c in enumerate(counts, start=1):
            nxt = counts[i] if i < len(counts) else 0
            exps.extend([i] * (c - nxt))
        primary[p] = sorted(exps, reverse=True)
    r = max(len(v) for v in primary.values())
    invariants = []
    for slot in range(r):
        d = 1
        for p, exps in primary.items():
            if slot < len(exps):
                d *= p ** exps[slot]
        invariants.append(d)
    invariants.reverse()  # smallest first, divisibility chain
    return tuple(invariants)


def simplicial_extend_by_supports(X, S: int, pattern, f: dict):
    """Reference for cubespace.simplicial_extend: the supports of the
    vertices as frozensets, every subset of range(S) listed by
    itertools.combinations and filled in order of size, then of its
    sorted coordinates."""
    pattern = set(tuple(v) for v in pattern)
    if set(f) != pattern:
        raise ValueError("assignment domain must equal the pattern")
    supports = {frozenset(i for i, b in enumerate(v) if b) for v in pattern}
    for h in supports:
        for i in h:
            if h - {i} not in supports:
                raise ValueError("pattern is not support-closed")
    values = dict(f)
    have = set(supports)
    all_supports = [frozenset(c) for r in range(S + 1) for c in itertools.combinations(range(S), r)]
    for h in sorted(all_supports, key=lambda h: (len(h), sorted(h))):
        if h in have:
            continue
        coords = sorted(h)
        m = len(coords)
        corner = []
        for j in range((1 << m) - 1):
            v = [0] * S
            for t, cidx in enumerate(coords):
                v[cidx] = (j >> t) & 1
            corner.append(values[tuple(v)])
        sols = X.completions(m, corner)
        if not sols:
            raise ValueError("pattern does not extend: no completion at support %s" % sorted(h))
        top = [0] * S
        for cidx in coords:
            top[cidx] = 1
        values[tuple(top)] = min(sols)
        have.add(h)
    return values
