"""LaTIn iteration on stacked-block problems with known closed forms.

The two-block uniaxial states are exact solutions of the discrete problem,
so the solver must reproduce them to near machine precision; the bonded
mode is checked against an independently assembled monolithic saddle
system with the same stabilization.
"""

import logging
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from latincut import assembly
from latincut.assembly import (
    assemble_elasticity,
    assemble_ghost_penalty,
    build_space,
    dirichlet_constraints,
    scatter_band_to_space,
)
from latincut.cutgeom import Material, build_cut_domain, build_interface, decompose_mesh
from latincut.errors import ConfigError, SolverFailure
from latincut.experiments import build_problem, ellipse_case, two_inclusions_case
from latincut.latin import (
    ContactProblem,
    IterationRecord,
    LatinParams,
    build_state,
    iterate,
    linear_stage,
    run,
)
from latincut.levelset import HalfPlane, interpolate_levelset
from latincut.mesh import build_structured_mesh

MAT = Material(e=1.0, nu=0.3)
P_EXACT = (0.3 / (1.3 * 0.4) + 2.0 / 2.6) * 0.1  # (lam + 2 mu) * squeeze


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
    ops = state.operators[pair]
    sch = ops.scheme
    f = sch.at_quadrature(state.f_hat[(pair, pair[0])]).reshape(-1, 2)
    w0 = sch.at_quadrature(state.w_hat[(pair, pair[0])]).reshape(-1, 2)
    w1 = sch.at_quadrature(state.w_hat[(pair, pair[1])]).reshape(-1, 2)
    fn = np.einsum("qi,qi->q", f, ops.qnormals)
    gap = np.einsum("qi,qi->q", w1 - w0, ops.qnormals)
    return fn, gap


def heart_fields(state, pair):
    """Contact-law fields rebuilt from the starred quantities."""
    i, j = pair
    ops = state.operators[pair]
    sch = ops.scheme
    k = state.params.k_plus
    fi = sch.at_quadrature(state.f_star[(pair, i)]).reshape(-1, 2)
    fj = sch.at_quadrature(state.f_star[(pair, j)]).reshape(-1, 2)
    wi = sch.at_quadrature(state.w_star[(pair, i)]).reshape(-1, 2)
    wj = sch.at_quadrature(state.w_star[(pair, j)]).reshape(-1, 2)
    n = ops.qnormals
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
        dict(k_plus=0.0),
        dict(k_plus=-1.0, k_minus=-1.0),
        dict(k_plus=1.0, k_minus=2.0),
        dict(eta=-0.1),
        dict(eta=1.5),
        dict(gamma_g=-1e-3),
        dict(gamma_pi=-1e-3),
        dict(alpha=0.0),
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
    assert p.k == p.k_plus == p.k_minus == 1.0
    assert p.interface_scheme == "p1"


def test_build_state_material_count_checked():
    problem = two_block_problem()
    problem.materials = [MAT]
    with pytest.raises(ConfigError):
        build_state(problem, LatinParams(it_max=1))


# --- linear stage against a dense solve -------------------------------------

def test_first_linear_stage_matches_dense_solve():
    problem = two_block_problem()
    state = build_state(problem, LatinParams(it_max=1))
    linear_stage(state)  # hat fields start at zero, so the load is rhs0 only
    for sysm, u in zip(state.systems, state.u):
        a = sysm.matrix.csr
        lift = np.asarray(
            a[np.ix_(sysm.free, sysm.fixed)] @ sysm.fixed_values
        ).ravel()
        expect = np.zeros(a.shape[0])
        expect[sysm.fixed] = sysm.fixed_values
        expect[sysm.free] = np.linalg.solve(
            a[np.ix_(sysm.free, sysm.free)].toarray(), sysm.rhs0[sysm.free] - lift
        )
        np.testing.assert_allclose(u, expect, atol=1e-9)
        np.testing.assert_allclose(lift, sysm.lift, atol=1e-12)


def test_linear_stage_reports_only_numerical_failures(monkeypatch):
    state = build_state(two_block_problem(), LatinParams(it_max=1))
    system = state.systems[0]
    rhs0 = system.rhs0
    # a load of the wrong length is a programming error, not a solver failure
    system.rhs0 = rhs0[:-1]
    with pytest.raises(ValueError):
        linear_stage(state)
    system.rhs0 = rhs0

    def singular(b):
        raise np.linalg.LinAlgError("singular factor")

    monkeypatch.setattr(system.factor, "solve", singular)
    with pytest.raises(SolverFailure, match="iteration 0: linear stage failed on subdomain 0"):
        iterate(state)


# --- two-block compression ---------------------------------------------------

def test_two_block_compression_exact():
    state = run(two_block_problem(), LatinParams(it_max=200))
    pair = state.pairs[0]
    assert displacement_error(state, squeeze) < 1e-10
    fn, gap = interface_fields(state, pair)
    np.testing.assert_allclose(-fn, P_EXACT, rtol=1e-6)
    assert np.abs(gap).max() < 1e-8
    assert state.history[-1].indicator < 1e-8
    assert state.history[-1].contact_fraction == 1.0


def test_action_reaction_is_exact():
    state = run(two_block_problem(), LatinParams(it_max=5))
    for pair in state.pairs:
        np.testing.assert_array_equal(
            state.f_hat[(pair, pair[0])], -state.f_hat[(pair, pair[1])]
        )


def test_hat_fields_satisfy_search_direction_identity():
    state = run(two_block_problem(), LatinParams(it_max=7))
    k = state.params.k_plus
    for pair in state.pairs:
        for side in pair:
            key = (pair, side)
            rebuilt = state.w_star[key] + (state.f_hat[key] - state.f_star[key]) / k
            np.testing.assert_array_equal(state.w_hat[key], rebuilt)


def test_heart_complementarity_under_compression():
    state = run(two_block_problem(), LatinParams(it_max=60))
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
    state = run(problem, LatinParams(it_max=120))
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
    state = run(two_block_problem(n=7, cut=4.0 / 7.0), LatinParams(it_max=200))
    assert displacement_error(state, squeeze) < 1e-7
    _, gap = interface_fields(state, state.pairs[0])
    assert np.abs(gap).max() < 1e-7


def test_p0_interface_scheme_shows_unstable_traction():
    # P0 multipliers close the gap and get the resultant right but the
    # pointwise traction checkerboards instead of settling; P1 stays flat.
    p0 = run(two_block_problem(), LatinParams(it_max=200, interface_scheme="p0"))
    p1 = run(two_block_problem(), LatinParams(it_max=200))
    assert displacement_error(p0, squeeze) < 1e-3
    fn0, gap0 = interface_fields(p0, p0.pairs[0])
    fn1, _ = interface_fields(p1, p1.pairs[0])
    assert np.abs(gap0).max() < 1e-8
    assert -fn0.mean() == pytest.approx(P_EXACT, rel=0.1)
    spread0 = fn0.max() - fn0.min()
    spread1 = fn1.max() - fn1.min()
    assert spread0 > 0.1 * P_EXACT
    assert spread0 > 100 * spread1


def test_weak_dirichlet_variant_matches_exact_solution():
    problem = two_block_problem()
    # impose the top data weakly instead of strongly
    del problem.dirichlet[1]["top"]
    problem.weak_dirichlet = {1: [("top", squeeze)]}
    state = run(problem, LatinParams(it_max=200))
    assert displacement_error(state, squeeze) < 1e-8


# --- determinism and history --------------------------------------------------

def test_run_is_deterministic():
    a = run(two_block_problem(), LatinParams(it_max=25))
    b = run(two_block_problem(), LatinParams(it_max=25))
    for ua, ub in zip(a.u, b.u):
        np.testing.assert_array_equal(ua, ub)
    assert [r.indicator for r in a.history[1:]] == [r.indicator for r in b.history[1:]]
    assert np.isinf(a.history[0].indicator) and np.isinf(b.history[0].indicator)


def test_resumed_iteration_matches_a_straight_run():
    straight = run(two_block_problem(), LatinParams(it_max=20))
    state = run(two_block_problem(), LatinParams(it_max=10))
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

    state = run(two_block_problem(), LatinParams(it_max=10), checkpoints=(3, 7), callback=grab)
    assert sorted(seen) == [3, 7]
    assert [r.it for r in state.history] == list(range(1, 11))
    assert all(r.indicator > 0 for r in state.history)
    # checkpoint 7 differs from checkpoint 3 but the last one is not final
    assert any(
        not np.array_equal(seen[3][i], seen[7][i]) for i in range(len(state.u))
    )


# --- the iteration against its per-call reference -----------------------------

def reference_project(ops, qp_values, scheme):
    """The projection as written before caching: eval_op^T W qp with the
    transpose and the diagonal weight matrix built on every call."""
    segs = ops.iface.segments
    w = sp.diags(np.repeat(segs.qweights, 2))
    rhs = ops.scheme.eval_op.T @ (w @ qp_values)
    if scheme == "p0":
        return rhs / np.repeat(segs.length, 2)
    return ops.scheme.proj.solve(rhs)


def reference_iterate(state, n):
    """n LaTIn iterations written with the per-iteration expressions the loop
    used before its fixed operators were cached: every transpose and weight
    matrix rebuilt on each call, every indicator norm evaluated."""
    params = state.params
    scheme = params.interface_scheme
    k = params.k_plus
    eta = params.eta
    for _ in range(n):
        for i, system in enumerate(state.systems):
            load = np.zeros(system.space.n_dofs)
            for pair, ops in state.operators.items():
                if i in pair:
                    z = state.f_hat[(pair, i)] + params.k_minus * state.w_hat[(pair, i)]
                    load += ops.scatter[i] @ ops.scheme.load_vector(z)
            state.u[i] = system.solve(load)

        for pair, ops in state.operators.items():
            for side in pair:
                trace = ops.scatter[side].T @ state.u[side]
                if scheme == "p0":
                    w_new = reference_project(ops, ops.scheme.trace_op @ trace, scheme)
                else:
                    w_new = trace.copy()
                key = (pair, side)
                state.f_star[key] = state.f_hat[key] + params.k_minus * (
                    state.w_hat[key] - w_new
                )
                state.w_star[key] = w_new

        previous = state.previous
        if previous is not None:
            for key in state.w_star:
                w_old, f_old = previous["w_star"][key], previous["f_star"][key]
                state.w_star[key] = eta * state.w_star[key] + (1.0 - eta) * w_old
                state.f_star[key] = eta * state.f_star[key] + (1.0 - eta) * f_old

        n_active = n_total = 0
        for pair, ops in state.operators.items():
            i, j = pair
            at = ops.scheme.at_quadrature
            fi = at(state.f_star[(pair, i)]).reshape(-1, 2)
            fj = at(state.f_star[(pair, j)]).reshape(-1, 2)
            wi = at(state.w_star[(pair, i)]).reshape(-1, 2)
            wj = at(state.w_star[(pair, j)]).reshape(-1, 2)
            force = 0.5 * (fi - fj + k * (wj - wi))
            if state.problem.contact:
                heart = np.einsum("qi,qi->q", force, ops.qnormals)
                n_active += int(np.count_nonzero(heart <= 0.0))
                n_total += heart.size
                force = np.minimum(heart, 0.0)[:, None] * ops.qnormals
            f_hat_i = reference_project(ops, force.ravel(), scheme)
            state.f_hat[(pair, i)] = f_hat_i
            state.f_hat[(pair, j)] = -f_hat_i
            for side in pair:
                key = (pair, side)
                state.w_hat[key] = state.w_star[key] + (
                    state.f_hat[key] - state.f_star[key]
                ) / k

        if previous is None:
            indicator = float("inf")
        else:
            num = den = 0.0
            for pair, ops in state.operators.items():
                norm = ops.scheme.norm_sq
                for side in pair:
                    key = (pair, side)
                    num += norm(state.f_hat[key] - previous["f_hat"][key])
                    num += k**2 * norm(state.w_hat[key] - previous["w_hat"][key])
                    den += norm(state.f_hat[key])
                    den += k**2 * norm(state.w_hat[key])
            indicator = 0.0 if den == 0.0 else float(np.sqrt(num / den))
        state.previous = {
            name: {key: v.copy() for key, v in getattr(state, name).items()}
            for name in ("w_star", "f_star", "w_hat", "f_hat")
        }
        state.it += 1
        fraction = n_active / n_total if n_total else 0.0
        state.history.append(IterationRecord(state.it, indicator, fraction))
    return state


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_states_bitwise(state, ref):
    assert state.it == ref.it
    for ua, ub in zip(state.u, ref.u, strict=True):
        assert_bitwise(ua, ub)
    for name in ("w_star", "f_star", "w_hat", "f_hat"):
        fields, ref_fields = getattr(state, name), getattr(ref, name)
        assert fields.keys() == ref_fields.keys()
        for key in fields:
            assert_bitwise(fields[key], ref_fields[key])
    assert state.history == ref.history


ORACLE_CASES = {
    "ellipse_p1": ellipse_case(base_nx=16, params=LatinParams(it_max=10)),
    "ellipse_p0": ellipse_case(
        base_nx=16, params=LatinParams(it_max=10, interface_scheme="p0")
    ),
    "two_inclusions": two_inclusions_case(base_nx=20, params=LatinParams(it_max=10)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_iteration_matches_reference_loop(case):
    pdef = ORACLE_CASES[case]
    state = iterate(build_state(build_problem(pdef), pdef.params))
    ref = reference_iterate(build_state(build_problem(pdef), pdef.params), 10)
    assert_states_bitwise(state, ref)
    assert np.isinf(state.history[0].indicator)
    assert all(0.0 < r.indicator < np.inf for r in state.history[1:])


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


def test_nonfinite_fields_on_first_iteration_fail(monkeypatch):
    state = build_state(two_block_problem(), LatinParams(it_max=5))
    monkeypatch.setattr(state.systems[1].factor, "solve", nan_solve)
    with pytest.raises(
        SolverFailure, match=r"^iteration 0: non-finite interface fields on pair \(0, 1\)$"
    ):
        iterate(state)
    assert state.it == 0 and state.history == []


def test_nonfinite_indicator_after_first_iteration_fails(monkeypatch):
    state = run(two_block_problem(), LatinParams(it_max=2))
    state.params = replace(state.params, it_max=5)
    monkeypatch.setattr(state.systems[0].factor, "solve", nan_solve)
    with pytest.raises(
        SolverFailure, match=r"^iteration 2: non-finite interface fields on pair \(0, 1\)$"
    ):
        iterate(state)
    assert state.it == 2 and len(state.history) == 2


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
def test_diverging_lens_interface_fails_with_its_pair():
    # at base_nx=16 the lens interface (1, 2) of the two inclusions diverges:
    # its hat fields stay finite while their norms round negative; left
    # running, the displacements pass 1e48 within 200 iterations
    pdef = two_inclusions_case(base_nx=16, params=LatinParams(it_max=20))
    state = build_state(build_problem(pdef), pdef.params)
    with pytest.raises(
        SolverFailure, match=r"^iteration 9: non-finite error indicator on pair \(1, 2\)$"
    ):
        iterate(state)


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
    doms = [build_cut_domain(i, mesh, [cut], MAT, decomposition=deco) for i in (0, 1)]
    spaces = [build_space(d) for d in doms]
    iface = build_interface(0, 1, mesh, [cut], decomposition=deco)
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
        c = m_band @ scatter_band_to_space(space, iface.band_vertices).toarray().T
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
    state = run(problem, LatinParams(it_max=400, k_plus=k, k_minus=k,
                                     gamma_g=gg, gamma_pi=gp))
    spaces, u_mono = monolithic_bonded(n, dirichlet, k, gg, gp)
    num = den = 0.0
    for space, ui, um in zip(spaces, state.u, u_mono):
        kmat = assemble_elasticity(space)
        d = ui - um
        num += d @ kmat.matvec(d)
        den += um @ kmat.matvec(um)
    assert np.sqrt(num / den) < 1e-9
