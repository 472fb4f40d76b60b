"""LaTIn iteration on stacked-block problems with known closed forms.

The two-block uniaxial states are exact solutions of the discrete problem,
so the solver must reproduce them to near machine precision; the bonded
mode is checked against an independently assembled monolithic saddle
system with the same stabilization.
"""

import logging
import re
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from latincut import assembly, latin
from latincut.assembly import (
    assemble_elasticity,
    assemble_ghost_penalty,
    build_space,
    dirichlet_constraints,
)
from latincut.config import params_to_flat
from latincut.cutgeom import Material, build_cut_domain, build_interface, decompose_mesh
from latincut.errors import ConfigError, SolverFailure
from latincut.experiments import (
    build_problem,
    crack_problem,
    ellipse_case,
    subdomain_operators,
    two_inclusions_case,
)
from latincut.latin import (
    ContactProblem,
    IterationRecord,
    LatinParams,
    build_state,
    iterate,
    linear_stage,
)
from latincut.levelset import HalfPlane, interpolate_levelset
from latincut.linalg import DenseFactor, SparseSym
from latincut.mesh import build_structured_mesh

MAT = Material(e=1.0, nu=0.3)
P_EXACT = (0.3 / (1.3 * 0.4) + 2.0 / 2.6) * 0.1  # (lam + 2 mu) * squeeze
FIELD_NAMES = ("w_star", "f_star", "w_hat", "f_hat")


def squeeze(pts):
    out = np.zeros((pts.shape[0], 2))
    out[:, 1] = -0.1 * pts[:, 1]
    return out


def two_block_problem(n=7, cut=0.5, contact=True, squeeze_data=squeeze):
    """Stacked blocks; subdomain 0 below the cut, 1 above."""
    mesh = build_structured_mesh((0.0, 0.0, 1.0, 1.0), n, n)
    ls = interpolate_levelset(HalfPlane(0.0, -1.0, cut), mesh)
    return ContactProblem(
        mesh=mesh,
        levelsets=[ls],
        materials=[MAT, MAT],
        dirichlet={
            0: {"bottom": squeeze_data, "left": squeeze_data, "right": squeeze_data},
            1: {"top": squeeze_data, "left": squeeze_data, "right": squeeze_data},
        },
        contact=contact,
    )


def displacement_error(state, exact):
    errs = []
    for space, u in zip(state.spaces, state.u):
        pts = space.mesh.vertices[space.vertices]
        errs.append(np.abs(u.reshape(-1, 2) - exact(pts)).max())
    return max(errs)


def interface_fields(state, pair):
    """Normal traction and opening at the quadrature points (hat fields)."""
    sch = state.operators[pair]
    f = sch.at_quadrature(state.interface_field("f_hat", pair, pair[0])).reshape(-1, 2)
    w0 = sch.at_quadrature(state.interface_field("w_hat", pair, pair[0])).reshape(-1, 2)
    w1 = sch.at_quadrature(state.interface_field("w_hat", pair, pair[1])).reshape(-1, 2)
    fn = np.einsum("qi,qi->q", f, sch.qnormals)
    gap = np.einsum("qi,qi->q", w1 - w0, sch.qnormals)
    return fn, gap


def heart_fields(state, pair):
    """Contact-law fields rebuilt from the starred quantities."""
    i, j = pair
    sch = state.operators[pair]
    k = state.params.k
    fi = sch.at_quadrature(state.interface_field("f_star", pair, i)).reshape(-1, 2)
    fj = sch.at_quadrature(state.interface_field("f_star", pair, j)).reshape(-1, 2)
    wi = sch.at_quadrature(state.interface_field("w_star", pair, i)).reshape(-1, 2)
    wj = sch.at_quadrature(state.interface_field("w_star", pair, j)).reshape(-1, 2)
    n = sch.qnormals
    heart = np.einsum("qi,qi->q", 0.5 * (fi - fj + k * (wj - wi)), n)
    fn = np.minimum(heart, 0.0)
    w_heart_i = wi + (fn[:, None] * n - fi) / k
    w_heart_j = wj + (-fn[:, None] * n - fj) / k
    gap = np.einsum("qi,qi->q", w_heart_j - w_heart_i, n)
    return fn, gap


# --- parameter validation ---------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=0.0),
        dict(k=-1.0),
        dict(k=float("nan")),
        dict(k=float("inf")),
        dict(k=1e200),  # k ** 2 overflows
        dict(eta=-0.1),
        dict(eta=0.0),
        dict(eta=1.5),
        dict(eta=float("nan")),
        dict(gamma_g=-1e-3),
        dict(gamma_g=float("nan")),
        dict(gamma_g=float("inf")),
        dict(gamma_pi=-1e-3),
        dict(gamma_pi=float("nan")),
        dict(gamma_pi=float("inf")),
        dict(eta=float("inf")),
        dict(it_max=-1),
        dict(quad_points_per_segment=0),
        dict(it_max=0),
        dict(quad_points_per_segment=3),
        dict(interface_scheme="p2"),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ConfigError):
        LatinParams(**kwargs)


def test_params_defaults_valid():
    p = LatinParams()
    assert p.k == 1.0
    assert p.interface_scheme == "p1"


def test_params_flat_texts():
    assert params_to_flat(LatinParams()) == {
        "latin.k": "1.0",
        "latin.eta": "0.85",
        "latin.gamma_g": "0.1",
        "latin.gamma_pi": "0.1",
        "latin.it_max": "200",
        "latin.quad_points_per_segment": "2",
        "latin.interface_scheme": "p1",
    }
    custom = LatinParams(k=0.1 + 0.2, eta=1 / 3, it_max=7, interface_scheme="p0")
    assert params_to_flat(custom)["latin.k"] == "0.30000000000000004"
    assert params_to_flat(custom)["latin.eta"] == "0.3333333333333333"


def test_build_state_material_count_checked():
    problem = two_block_problem()
    problem.materials = [MAT]
    with pytest.raises(ConfigError):
        build_state(problem, LatinParams(it_max=1))


# --- the interface band, built apart from `assembly.interface_band` -----------

def band_injection(space, band_vertices):
    """The 0/1 matrix (n_dofs, 2 * n_band) that places band dofs in a
    subdomain's dof vector."""
    dofs = space.vertex_dofs(band_vertices).ravel()
    return sp.csr_matrix(
        (np.ones(dofs.size), (dofs, np.arange(dofs.size))), shape=(space.n_dofs, dofs.size)
    )


def oracle_band(spaces, iface):
    """One interface's band from the assembly primitives: its evaluation
    operator, its mass and each side's 0/1 injection."""
    mesh = spaces[iface.pair[0]].mesh
    e = assembly.interface_eval_operator(mesh, iface.segments, iface.band_vertices)
    return SimpleNamespace(
        eval_op=e,
        mass=assembly.interface_mass(e, iface.segments.qweights),
        inject={s: band_injection(spaces[s], iface.band_vertices) for s in iface.pair},
    )


BAND_CASES = {
    "two_blocks": two_block_problem(),
    "two_inclusions": build_problem(two_inclusions_case(base_nx=12)),
    # the triple junction: one subdomain touches three interfaces
    "crack": build_problem(crack_problem(0.5, 0.25, 12, 0.1)),
}


@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_augmentation_matches_injected_masses(case):
    # relabeling k M onto a side's dofs stores exactly what the sum of
    # S (k M) S^T over the subdomain's interfaces stores
    k = 1.7
    spaces, interfaces = latin.build_geometry(BAND_CASES[case], 2)
    bands = {pair: assembly.interface_band(iface, spaces) for pair, iface in interfaces.items()}
    for i, space in enumerate(spaces):
        touching = [pair for pair in sorted(interfaces) if i in pair]
        total = sp.csr_matrix((space.n_dofs, space.n_dofs))
        for pair in touching:
            band = oracle_band(spaces, interfaces[pair])
            total = total + band.inject[i] @ (k * band.mass.csr) @ band.inject[i].T
        expect = SparseSym.finalize(total)
        got = assembly.assemble_latin_augmentation(space, [bands[p] for p in touching], k)
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(expect, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def count_band_parts(monkeypatch):
    """Count the calls of the two band builders from here on."""
    counts = {}
    for name in ("interface_eval_operator", "interface_mass"):
        counts[name] = 0

        def counted(*args, _name=name, _fn=getattr(assembly, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(assembly, name, counted)
    return counts


@pytest.mark.parametrize(
    "name, scheme, n_interfaces",
    [("ellipse", "p1", 1), ("ellipse", "p0", 1), ("two_inclusions", "p1", 3)],
)
def test_build_state_builds_one_band_per_interface(monkeypatch, name, scheme, n_interfaces):
    counts = count_band_parts(monkeypatch)
    case = ellipse_case if name == "ellipse" else two_inclusions_case
    pdef = case(base_nx=12, params=LatinParams(it_max=1, interface_scheme=scheme))
    state = build_state(build_problem(pdef), pdef.params)
    assert len(state.operators) == n_interfaces
    assert counts == {"interface_eval_operator": n_interfaces, "interface_mass": n_interfaces}
    # each interface's one record is its scheme
    scheme_type = latin.P0Scheme if scheme == "p0" else latin.P1Scheme
    for pair, sch in state.operators.items():
        assert type(sch) is scheme_type and sch.iface.pair == pair


def test_crack_operators_build_one_band_per_interface(monkeypatch):
    # three weights of one crack geometry share its five bands
    pdef = crack_problem(0.5, 0.25, 12, 0.0)
    problem = build_problem(pdef)
    assert len(problem.deco.pairs) == 5
    counts = count_band_parts(monkeypatch)
    groups = list(subdomain_operators((pdef, problem), (0.0, 1e-3, 0.1)))
    assert len(groups) == 3
    assert counts == {"interface_eval_operator": 5, "interface_mass": 5}


# --- linear stage against a dense solve -------------------------------------

def test_first_linear_stage_matches_dense_solve():
    problem = two_block_problem()
    params = LatinParams(it_max=1)
    state = build_state(problem, params)
    # hat fields start at zero, so the load is rhs0 only
    u_all = linear_stage(state, state.hat)
    for i, (sysm, u) in enumerate(zip(state.systems, u_all, strict=True)):
        # the operator, reassembled term by term and summed densely
        space = sysm.space
        ifaces = [sch.iface for pair, sch in sorted(state.operators.items()) if i in pair]
        a = (
            assemble_elasticity(space).toarray()
            + assemble_ghost_penalty(space, params.gamma_g).toarray()
        )
        for iface in ifaces:
            band = oracle_band(state.spaces, iface)
            s = band.inject[i].toarray()
            a += s @ (params.k * band.mass.toarray()) @ s.T
        lift = a[np.ix_(sysm.free, sysm.fixed)] @ sysm.fixed_values
        expect = np.zeros(a.shape[0])
        expect[sysm.fixed] = sysm.fixed_values
        expect[sysm.free] = np.linalg.solve(
            a[np.ix_(sysm.free, sysm.free)], sysm.rhs0[sysm.free] - lift
        )
        np.testing.assert_allclose(u, expect, atol=1e-9)
        np.testing.assert_allclose(lift, sysm.lift, atol=1e-12)


def test_full_operator_is_freed_before_factorization(monkeypatch):
    # the factorization sets the peak resident size, so the full operator
    # (and its CSR storage) must be gone once its free-dof part is taken
    operators = latin.linear_stage_operators
    factorize = latin.factorize
    refs = []

    def recording(*args, **kwargs):
        for op in operators(*args, **kwargs):
            refs.extend((weakref.ref(op), weakref.ref(op.csr)))
            yield op

    factorized = []  # (operators yielded so far, size) of each factorization

    def checking(a):
        assert all(ref() is None for ref in refs)
        factorized.append((len(refs) // 2, a.n))
        return factorize(a)

    monkeypatch.setattr(latin, "linear_stage_operators", recording)
    monkeypatch.setattr(latin, "factorize", checking)
    state = build_state(two_block_problem(), LatinParams(it_max=1))
    # both blocks have Dirichlet dofs, so each took its lift from the operator
    assert all(s.fixed.size for s in state.systems)
    # interface projections are factorized too, before any operator is yielded
    subdomain_factors = [f for f in factorized if f[0]]
    assert subdomain_factors == [(i + 1, s.free.size) for i, s in enumerate(state.systems)]


def test_linear_stage_reports_only_numerical_failures(monkeypatch):
    state = build_state(two_block_problem(), LatinParams(it_max=1))
    system = state.systems[0]
    rhs_free = system.rhs_free
    # a load of the wrong length is a programming error, not a solver failure
    system.rhs_free = rhs_free[:-1]
    with pytest.raises(ValueError):
        linear_stage(state, state.hat)
    system.rhs_free = rhs_free

    def singular(b):
        raise np.linalg.LinAlgError("singular factor")

    monkeypatch.setattr(system.factor, "solve", singular)
    with pytest.raises(SolverFailure, match="iteration 0: linear stage failed on subdomain 0"):
        iterate(state)


# --- two-block compression ---------------------------------------------------

def test_two_block_compression_exact():
    state = iterate(build_state(two_block_problem(), LatinParams(it_max=200)))
    pair = state.pairs[0]
    assert displacement_error(state, squeeze) < 1e-10
    fn, gap = interface_fields(state, pair)
    np.testing.assert_allclose(-fn, P_EXACT, rtol=1e-6)
    assert np.abs(gap).max() < 1e-8
    assert state.history[-1].indicator < 1e-8
    assert state.history[-1].contact_fraction == 1.0


def test_two_block_neumann_load_exact():
    # a traction (0, -p) on the top of block 1 and the exact plane-strain
    # uniaxial field as Dirichlet data on every other outer side
    p = 0.1
    exx = (1.0 + MAT.nu) * MAT.nu * p / MAT.e
    eyy = -(1.0 + MAT.nu) * (1.0 - MAT.nu) * p / MAT.e

    def uniaxial(pts):
        return pts * [exx, eyy]

    problem = two_block_problem(squeeze_data=uniaxial)
    del problem.dirichlet[1]["top"]
    problem.neumann = {1: {"top": (0.0, -p)}}
    state = iterate(build_state(problem, LatinParams(it_max=200)))
    assert displacement_error(state, uniaxial) < 1e-10
    assert state.history[-1].contact_fraction == 1.0


def test_action_reaction_is_exact():
    state = iterate(build_state(two_block_problem(), LatinParams(it_max=5)))
    for pair in state.pairs:
        np.testing.assert_array_equal(
            state.interface_field("f_hat", pair, pair[0]),
            -state.interface_field("f_hat", pair, pair[1]),
        )


def test_hat_fields_satisfy_search_direction_identity():
    state = iterate(build_state(two_block_problem(), LatinParams(it_max=7)))
    k = state.params.k
    for pair in state.pairs:
        for side in pair:
            w_star, f_star, w_hat, f_hat = (
                state.interface_field(name, pair, side) for name in FIELD_NAMES
            )
            rebuilt = w_star + (f_hat - f_star) / k
            np.testing.assert_array_equal(w_hat, rebuilt)


def test_heart_complementarity_under_compression():
    state = iterate(build_state(two_block_problem(), LatinParams(it_max=60)))
    fn, gap = heart_fields(state, state.pairs[0])
    assert fn.max() <= 0.0
    assert gap.min() >= -1e-9
    assert np.abs(fn * gap).max() < 1e-12


def test_two_block_separation():
    def lift_data(pts):
        out = np.zeros((pts.shape[0], 2))
        out[:, 1] = 0.05
        return out

    mesh = build_structured_mesh((0.0, 0.0, 1.0, 1.0), 7, 7)
    ls = interpolate_levelset(HalfPlane(0.0, -1.0, 0.5), mesh)
    problem = ContactProblem(
        mesh=mesh,
        levelsets=[ls],
        materials=[MAT, MAT],
        dirichlet={0: {"bottom": (0.0, 0.0)}, 1: {"top": lift_data}},
    )
    state = iterate(build_state(problem, LatinParams(it_max=120)))
    pair = state.pairs[0]
    fn, gap = interface_fields(state, pair)
    assert np.abs(fn).max() < 1e-8  # traction-free open interface
    np.testing.assert_allclose(gap, 0.05, atol=1e-7)
    assert state.history[-1].contact_fraction == 0.0
    # stress-free blocks: below stays put, above translates rigidly
    err0 = np.abs(state.u[0]).max()
    pts1 = mesh.vertices[state.spaces[1].vertices]
    err1 = np.abs(state.u[1].reshape(-1, 2) - [0.0, 0.05]).max()
    assert max(err0, err1) < 1e-8
    hfn, hgap = heart_fields(state, pair)
    assert np.abs(hfn * hgap).max() == 0.0  # open: traction exactly zero


def test_grid_aligned_cut_still_solves_displacement():
    # the cut lying on a mesh line degenerates the interface projection;
    # the deflated solve must keep the displacement field exact
    problem = two_block_problem(n=7, cut=4.0 / 7.0)
    state = iterate(build_state(problem, LatinParams(it_max=200)))
    assert displacement_error(state, squeeze) < 1e-7
    _, gap = interface_fields(state, state.pairs[0])
    assert np.abs(gap).max() < 1e-7


def test_p0_interface_scheme_shows_unstable_traction():
    # P0 multipliers close the gap and get the resultant right but the
    # pointwise traction checkerboards instead of settling; P1 stays flat.
    p0 = iterate(
        build_state(two_block_problem(), LatinParams(it_max=200, interface_scheme="p0"))
    )
    p1 = iterate(build_state(two_block_problem(), LatinParams(it_max=200)))
    assert displacement_error(p0, squeeze) < 1e-3
    fn0, gap0 = interface_fields(p0, p0.pairs[0])
    fn1, _ = interface_fields(p1, p1.pairs[0])
    assert np.abs(gap0).max() < 1e-8
    assert -fn0.mean() == pytest.approx(P_EXACT, rel=0.1)
    spread0 = fn0.max() - fn0.min()
    spread1 = fn1.max() - fn1.min()
    assert spread0 > 0.1 * P_EXACT
    assert spread0 > 100 * spread1


# --- determinism and history --------------------------------------------------

def test_run_is_deterministic():
    a = iterate(build_state(two_block_problem(), LatinParams(it_max=25)))
    b = iterate(build_state(two_block_problem(), LatinParams(it_max=25)))
    for ua, ub in zip(a.u, b.u):
        np.testing.assert_array_equal(ua, ub)
    assert [r.indicator for r in a.history[1:]] == [r.indicator for r in b.history[1:]]
    assert np.isinf(a.history[0].indicator) and np.isinf(b.history[0].indicator)


def test_resumed_iteration_matches_a_straight_run():
    straight = iterate(build_state(two_block_problem(), LatinParams(it_max=20)))
    state = iterate(build_state(two_block_problem(), LatinParams(it_max=10)))
    state.params = replace(state.params, it_max=20)
    iterate(state)
    assert state.it == 20
    for ua, ub in zip(state.u, straight.u):
        np.testing.assert_array_equal(ua, ub)
    assert state.history == straight.history


def test_history_and_checkpoints():
    seen = {}

    def grab(it, st):
        seen[it] = [v.copy() for v in st.u]

    state = iterate(
        build_state(two_block_problem(), LatinParams(it_max=10)), checkpoints=(3, 7), callback=grab
    )
    assert sorted(seen) == [3, 7]
    assert [r.it for r in state.history] == list(range(1, 11))
    assert all(r.indicator > 0 for r in state.history)
    # checkpoint 7 differs from checkpoint 3 but the last one is not final
    assert any(
        not np.array_equal(seen[3][i], seen[7][i]) for i in range(len(state.u))
    )


# --- the iteration against its per-call reference -----------------------------

def as_scipy(op):
    """The scipy CSR matrix a `linalg.CsrOperator` holds, so the reference
    applies it through scipy's own product."""
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape)


def reference_project(sch, qp_values, scheme):
    """The projection as written before caching: eval_op^T W qp with the
    transpose and the diagonal weight matrix built on every call."""
    segs = sch.iface.segments
    w = sp.diags(np.repeat(segs.qweights, 2))
    rhs = as_scipy(sch.eval_op).T @ (w @ qp_values)
    if scheme == "p0":
        return rhs / np.repeat(segs.length, 2)
    return sch.proj.solve(rhs)


def reference_iterate(state, n):
    """n LaTIn iterations from a fresh state, written as plain scipy
    expressions, the way the loop read before its fixed operators were
    cached and its interface fields packed: every transpose, weight matrix
    and full-length load rebuilt on each call, every indicator norm
    evaluated, and each (pair, side) field its own array in a dict.  Only
    the factorizations are the state's; each pair's P1 band, with its 0/1
    injections, is built apart (`oracle_band`).  Returns the reference's
    it, u, history and fields ({name: {(pair, side): array}})."""
    params = state.params
    scheme = params.interface_scheme
    k = params.k
    eta = params.eta
    bands = {pair: oracle_band(state.spaces, sch.iface) for pair, sch in state.operators.items()}

    def load_vector(pair, sch, z):
        if scheme == "p0":
            return as_scipy(sch.load_map) @ z
        return bands[pair].mass.csr @ z

    def at_quadrature(sch, z):
        return as_scipy(sch.eval_op) @ z

    def norm_sq(pair, sch, z):
        if scheme == "p0":
            return float((z * z) @ np.repeat(sch.iface.segments.length, 2))
        return float(z @ (bands[pair].mass.csr @ z))

    fields = {
        name: {
            (pair, side): np.zeros(sch.n_unknowns)
            for pair, sch in state.operators.items()
            for side in pair
        }
        for name in FIELD_NAMES
    }
    w_star, f_star, w_hat, f_hat = (fields[name] for name in FIELD_NAMES)
    u_all = [np.zeros(space.n_dofs) for space in state.spaces]
    history = []
    previous = None
    for it in range(n):
        for i, system in enumerate(state.systems):
            load = np.zeros(system.space.n_dofs)
            for pair, sch in state.operators.items():
                if i in pair:
                    z = f_hat[(pair, i)] + params.k * w_hat[(pair, i)]
                    load += bands[pair].inject[i] @ load_vector(pair, sch, z)
            b = (system.rhs0 + load)[system.free] - system.lift
            u = np.zeros(system.space.n_dofs)
            u[system.fixed] = system.fixed_values
            u[system.free] = system.factor.solve(b)
            u_all[i] = u

        for pair, sch in state.operators.items():
            for side in pair:
                trace = bands[pair].inject[side].T @ u_all[side]
                if scheme == "p0":
                    qp_trace = bands[pair].eval_op @ trace
                    w_new = reference_project(sch, qp_trace, scheme)
                else:
                    w_new = trace.copy()
                key = (pair, side)
                f_star[key] = f_hat[key] + params.k * (w_hat[key] - w_new)
                w_star[key] = w_new

        if previous is not None:
            for key in w_star:
                w_old, f_old = previous["w_star"][key], previous["f_star"][key]
                w_star[key] = eta * w_star[key] + (1.0 - eta) * w_old
                f_star[key] = eta * f_star[key] + (1.0 - eta) * f_old

        n_active = n_total = 0
        for pair, sch in state.operators.items():
            i, j = pair
            fi = at_quadrature(sch, f_star[(pair, i)]).reshape(-1, 2)
            fj = at_quadrature(sch, f_star[(pair, j)]).reshape(-1, 2)
            wi = at_quadrature(sch, w_star[(pair, i)]).reshape(-1, 2)
            wj = at_quadrature(sch, w_star[(pair, j)]).reshape(-1, 2)
            force = 0.5 * (fi - fj + k * (wj - wi))
            if state.problem.contact:
                heart = np.einsum("qi,qi->q", force, sch.qnormals)
                n_active += int(np.count_nonzero(heart <= 0.0))
                n_total += heart.size
                force = np.minimum(heart, 0.0)[:, None] * sch.qnormals
            f_hat_i = reference_project(sch, force.ravel(), scheme)
            f_hat[(pair, i)] = f_hat_i
            f_hat[(pair, j)] = -f_hat_i
            for side in pair:
                key = (pair, side)
                w_hat[key] = w_star[key] + (f_hat[key] - f_star[key]) / k

        if previous is None:
            indicator = float("inf")
        else:
            num = den = 0.0
            for pair, sch in state.operators.items():
                for side in pair:
                    key = (pair, side)
                    num += norm_sq(pair, sch, f_hat[key] - previous["f_hat"][key])
                    num += k**2 * norm_sq(pair, sch, w_hat[key] - previous["w_hat"][key])
                    den += norm_sq(pair, sch, f_hat[key])
                    den += k**2 * norm_sq(pair, sch, w_hat[key])
            indicator = 0.0 if den == 0.0 else float(np.sqrt(num / den))
        previous = {
            name: {key: v.copy() for key, v in fields[name].items()}
            for name in FIELD_NAMES
        }
        fraction = n_active / n_total if n_total else 0.0
        history.append(IterationRecord(it + 1, indicator, fraction))
    return SimpleNamespace(it=n, u=u_all, history=history, fields=fields)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_states_bitwise(state, ref):
    assert state.it == ref.it
    for ua, ub in zip(state.u, ref.u, strict=True):
        assert_bitwise(ua, ub)
    for name in FIELD_NAMES:
        ref_fields = ref.fields[name]
        assert state.slots.keys() == ref_fields.keys()
        for pair, side in state.slots:
            assert_bitwise(state.interface_field(name, pair, side), ref_fields[(pair, side)])
    assert state.history == ref.history


ORACLE_CASES = {
    "ellipse_p1": ellipse_case(base_nx=16, params=LatinParams(it_max=10)),
    "ellipse_p0": ellipse_case(
        base_nx=16, params=LatinParams(it_max=10, interface_scheme="p0")
    ),
    # long enough for the contact set to move and settle
    "ellipse_contact": ellipse_case(base_nx=16, params=LatinParams(it_max=40)),
    "two_inclusions": two_inclusions_case(base_nx=20, params=LatinParams(it_max=10)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_iteration_matches_reference_loop(case):
    pdef = ORACLE_CASES[case]
    state = iterate(build_state(build_problem(pdef), pdef.params))
    ref = reference_iterate(build_state(build_problem(pdef), pdef.params), pdef.params.it_max)
    assert_states_bitwise(state, ref)
    assert np.isinf(state.history[0].indicator)
    assert all(0.0 < r.indicator < np.inf for r in state.history[1:])
    if case == "ellipse_contact":
        fractions = [r.contact_fraction for r in state.history]
        assert all(0.0 < f < 1.0 for f in fractions)
        assert len(set(fractions)) > 1


def test_subdomain_without_interfaces_matches_reference_loop():
    # with no level set the one subdomain has no interface load at all
    pdef = replace(
        two_inclusions_case(base_nx=12, params=LatinParams(it_max=2)),
        levelsets=(),
        e_moduli=(1.0,),
    )
    state = iterate(build_state(build_problem(pdef), pdef.params))
    assert state.pairs == [] and len(state.systems) == 1
    ref = reference_iterate(build_state(build_problem(pdef), pdef.params), 2)
    assert_states_bitwise(state, ref)


def test_snapshot_arrays_are_not_written_in_place():
    # relaxation and the indicator read the state's own (star, hat), so the
    # next iteration must leave every one of them as it was
    pdef = ORACLE_CASES["ellipse_p1"]
    state = build_state(build_problem(pdef), replace(pdef.params, it_max=3))
    iterate(state)
    previous = (state.star, state.hat)
    saved = [a.tobytes() for a in previous]
    state.params = replace(state.params, it_max=4)
    iterate(state)
    assert all(a is not b for a, b in zip((state.star, state.hat), previous))
    for name, a, data in zip(("star", "hat"), previous, saved):
        assert a.tobytes() == data, name


def test_resumed_iteration_matches_reference_loop():
    pdef = ORACLE_CASES["ellipse_p1"]
    state = build_state(build_problem(pdef), replace(pdef.params, it_max=5))
    iterate(state)
    state.params = pdef.params
    iterate(state)
    ref = reference_iterate(build_state(build_problem(pdef), pdef.params), 10)
    assert_states_bitwise(state, ref)


# --- divergence guard and fallback logging -------------------------------------

def nan_solve(b):
    return np.full(np.shape(b), np.nan)


def iterate_bytes(state):
    """The bytes of the arrays an iteration stores."""
    return [a.tobytes() for a in (state.star, state.hat, *state.u)]


def test_nonfinite_fields_on_first_iteration_fail(monkeypatch):
    state = build_state(two_block_problem(), LatinParams(it_max=5))
    before = iterate_bytes(state)
    monkeypatch.setattr(state.systems[1].factor, "solve", nan_solve)
    with pytest.raises(
        SolverFailure, match=r"^iteration 0: non-finite interface fields on pair \(0, 1\)$"
    ):
        iterate(state)
    assert state.it == 0 and state.history == []
    assert iterate_bytes(state) == before


def test_nonfinite_indicator_after_first_iteration_fails(monkeypatch):
    state = iterate(build_state(two_block_problem(), LatinParams(it_max=2)))
    state.params = replace(state.params, it_max=5)
    before = iterate_bytes(state)
    monkeypatch.setattr(state.systems[0].factor, "solve", nan_solve)
    with pytest.raises(
        SolverFailure, match=r"^iteration 2: non-finite interface fields on pair \(0, 1\)$"
    ):
        iterate(state)
    assert state.it == 2 and len(state.history) == 2
    assert iterate_bytes(state) == before


@pytest.mark.parametrize("clean_iterations", [0, 1])
def test_nonfinite_fields_name_the_first_pair_in_sorted_order(monkeypatch, clean_iterations):
    # NaN displacements on subdomain 2 reach pairs (0, 2) and (1, 2); pair
    # (0, 1) stays finite, so the scan must name (0, 2), not the first pair
    # it visits nor the last
    pdef = two_inclusions_case(base_nx=12, params=LatinParams(it_max=5))
    state = build_state(build_problem(pdef), replace(pdef.params, it_max=1))
    if clean_iterations:
        iterate(state)
    state.params = pdef.params
    before = iterate_bytes(state)
    monkeypatch.setattr(state.systems[2].factor, "solve", nan_solve)
    message = f"iteration {clean_iterations}: non-finite interface fields on pair (0, 2)"
    with pytest.raises(SolverFailure, match=rf"^{re.escape(message)}$"):
        iterate(state)
    assert state.it == clean_iterations
    assert iterate_bytes(state) == before
    assert state.pairs == [(0, 1), (0, 2), (1, 2)]
    for name in FIELD_NAMES:
        for side in (0, 1):
            assert np.isfinite(state.interface_field(name, (0, 1), side)).all()


def test_failed_iteration_resumes_as_a_straight_run(monkeypatch):
    # a failed iteration stores nothing, so once its cause is repaired the
    # run continues as if it had never failed
    pdef = two_inclusions_case(base_nx=12, params=LatinParams(it_max=6))
    straight = iterate(build_state(build_problem(pdef), pdef.params))
    state = build_state(build_problem(pdef), replace(pdef.params, it_max=2))
    iterate(state)
    state.params = pdef.params
    monkeypatch.setattr(state.systems[2].factor, "solve", nan_solve)
    with pytest.raises(SolverFailure, match=r"^iteration 2: "):
        iterate(state)
    monkeypatch.undo()
    iterate(state)
    assert state.it == 6
    assert iterate_bytes(state) == iterate_bytes(straight)
    assert state.history == straight.history


def test_nearly_singular_lens_projection_is_deflated(caplog):
    # at base_nx=16 the lens interface (1, 2) of the two inclusions has a
    # projection matrix singular to working precision that still factors
    # with positive pivots (pivot ratio about 5e-13); undetected, its
    # near-kernel blew the hat fields up within ten iterations
    caplog.set_level(logging.WARNING, logger="latincut")
    pdef = two_inclusions_case(base_nx=16, params=LatinParams(it_max=200))
    state = build_state(build_problem(pdef), pdef.params)
    records = [r for r in caplog.records if r.name == "latincut.latin"]
    assert [r.levelname for r in records] == ["WARNING"]
    assert "pair (1, 2)" in records[0].getMessage()
    assert isinstance(state.operators[(1, 2)].proj, DenseFactor)
    iterate(state)
    assert state.history[-1].indicator < 1e-3


def test_deflated_projection_logs_a_warning(caplog):
    caplog.set_level(logging.WARNING, logger="latincut")
    build_state(two_block_problem(n=7, cut=4.0 / 7.0), LatinParams(it_max=1))
    records = [r for r in caplog.records if r.name == "latincut.latin"]
    assert len(records) == 1
    assert records[0].levelname == "WARNING"
    assert "pair (0, 1)" in records[0].getMessage()


def test_regular_projection_logs_nothing(caplog):
    caplog.set_level(logging.DEBUG, logger="latincut")
    pdef = ellipse_case(base_nx=40)
    build_state(build_problem(pdef), pdef.params)
    assert [r for r in caplog.records if r.name.startswith("latincut")] == []


# --- bonded mode against the monolithic saddle --------------------------------

def tilted_press(pts):
    out = np.zeros((pts.shape[0], 2))
    out[:, 1] = -0.1 * (1.0 + 0.5 * pts[:, 0])
    return out


def monolithic_bonded(n, dirichlet, k, gamma_g, gamma_pi):
    """Dense stabilized saddle: two subdomains tied through a multiplier."""
    mesh = build_structured_mesh((0.0, 0.0, 1.0, 1.0), n, n)
    cut = interpolate_levelset(HalfPlane(0.0, -1.0, 0.5), mesh)
    deco = decompose_mesh(mesh, [cut])
    doms = [build_cut_domain(i, mesh, MAT, deco) for i in (0, 1)]
    spaces = [build_space(d) for d in doms]
    iface = build_interface(0, 1, mesh, deco)
    e_op = assembly.interface_eval_operator(mesh, iface.segments, iface.band_vertices)
    m_band = assembly.interface_mass(e_op, iface.segments.qweights).toarray()
    j_band = assembly.gradient_jump_matrix(
        mesh, iface.interior_faces, iface.band_vertices, gamma_pi
    ).toarray()

    blocks, rhss, parts, cmats = [], [], [], []
    for i, space in enumerate(spaces):
        a = (assemble_elasticity(space) + assemble_ghost_penalty(space, gamma_g)).toarray()
        fixed, vals = dirichlet_constraints(space, dirichlet[i])
        free = np.setdiff1d(np.arange(space.n_dofs), fixed)
        c = m_band @ band_injection(space, iface.band_vertices).toarray().T
        blocks.append(a[np.ix_(free, free)])
        rhss.append(-a[np.ix_(free, fixed)] @ vals)
        parts.append((space, free, fixed, vals))
        cmats.append(c)

    n0, n1, nb = blocks[0].shape[0], blocks[1].shape[0], m_band.shape[0]
    big = np.zeros((n0 + n1 + nb, n0 + n1 + nb))
    big[:n0, :n0] = blocks[0]
    big[n0 : n0 + n1, n0 : n0 + n1] = blocks[1]
    c0f = cmats[0][:, parts[0][1]]
    c1f = cmats[1][:, parts[1][1]]
    big[:n0, n0 + n1 :] = -c0f.T
    big[n0 : n0 + n1, n0 + n1 :] = c1f.T
    big[n0 + n1 :, :n0] = -c0f
    big[n0 + n1 :, n0 : n0 + n1] = c1f
    big[n0 + n1 :, n0 + n1 :] = -(2.0 / k) * j_band
    rhs = np.concatenate(
        [
            rhss[0],
            rhss[1],
            cmats[0][:, parts[0][2]] @ parts[0][3]
            - cmats[1][:, parts[1][2]] @ parts[1][3],
        ]
    )
    sol = np.linalg.solve(big, rhs)
    out, off = [], 0
    for space, free, fixed, vals in parts:
        u = np.zeros(space.n_dofs)
        u[fixed] = vals
        u[free] = sol[off : off + free.size]
        off += free.size
        out.append(u)
    return spaces, out


def test_bonded_matches_monolithic_saddle():
    n, k, gg, gp = 5, 1.0, 0.1, 0.1
    dirichlet = {0: {"bottom": (0.0, 0.0)}, 1: {"top": tilted_press}}
    mesh = build_structured_mesh((0.0, 0.0, 1.0, 1.0), n, n)
    cut = interpolate_levelset(HalfPlane(0.0, -1.0, 0.5), mesh)
    problem = ContactProblem(
        mesh=mesh, levelsets=[cut], materials=[MAT, MAT],
        dirichlet=dirichlet, contact=False,
    )
    state = iterate(build_state(problem, LatinParams(it_max=400, k=k, gamma_g=gg, gamma_pi=gp)))
    spaces, u_mono = monolithic_bonded(n, dirichlet, k, gg, gp)
    num = den = 0.0
    for space, ui, um in zip(spaces, state.u, u_mono):
        kmat = assemble_elasticity(space)
        d = ui - um
        num += d @ kmat.matvec(d)
        den += um @ kmat.matvec(um)
    assert np.sqrt(num / den) < 1e-9
