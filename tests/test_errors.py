"""Input checks: every malformed number or array a caller passes raises
InvalidInput naming the argument (FormatError for a file's content), while
valid edge inputs, NumPy scalars included, pass and give the same bits."""

import numpy as np
import pytest

import sinkdiv as sd
from sinkdiv.engine import ReductionPlan, lse_rows, soft_min, softmin
from sinkdiv.flows import FlowConfig
from sinkdiv.losses import evaluate


def _pair():
    return sd.from_arrays([0.5, 0.5], [[0.0], [1.0]]), sd.from_arrays([1.0], [[0.5]])


def _solve(params):
    return sd.sinkhorn(*_pair(), params)


def _json(tmp, text):
    path = tmp / "ragged.json"
    path.write_text(text)
    return path


def _first_reduction(plan):
    points = np.zeros((3, 1))
    return lse_rows(plan, np.zeros(3), np.zeros(3), points, points, sd.CostSpec(2, 1.0))


NAN = float("nan")
SPEC, PARAMS = sd.CostSpec(2, 1.0), sd.SolverParams(epsilon=1.0)

# (id, call taking a scratch directory, error, pattern its message matches)
BAD_INPUTS = [
    # counts
    ("max-iters-float", lambda tmp: _solve(sd.SolverParams(epsilon=0.1, max_iters=1e4)),
     sd.InvalidInput, "^max_iters "),
    ("max-iters-string", lambda tmp: sd.SolverParams(0.1, max_iters="10"),
     sd.InvalidInput, "^max_iters "),
    ("max-iters-nan", lambda tmp: sd.SolverParams(0.1, max_iters=NAN), sd.InvalidInput,
     "^max_iters "),
    ("tile-size-float", lambda tmp: _first_reduction(ReductionPlan(3, 3, tile_size=2.5)),
     sd.InvalidInput, "^tile_size "),
    ("n-rows-array", lambda tmp: ReductionPlan(np.array([3]), 3), sd.InvalidInput, "^n_rows "),
    ("samples-float", lambda tmp: sd.sample_unit_square(2.5), sd.InvalidInput, "^n "),
    ("samples-bool", lambda tmp: sd.sample_unit_square(True), sd.InvalidInput, "^n "),
    ("seed-negative", lambda tmp: sd.sample_unit_square(2, seed=-1), sd.InvalidInput, "^seed "),
    ("seed-float", lambda tmp: sd.sample_unit_square(2, seed=1.5), sd.InvalidInput, "^seed "),
    ("p-bool", lambda tmp: sd.CostSpec(True, 0.1), sd.InvalidInput, "^p "),
    ("solver-p-bool", lambda tmp: sd.SolverParams(0.1, p=True), sd.InvalidInput, "^p "),
    ("max-entries-nan", lambda tmp: sd.plan_matrix(*_pair(), np.zeros(2), np.zeros(1), SPEC,
                                                   max_entries=NAN),
     sd.InvalidInput, "^max_entries "),
    ("max-entries-string", lambda tmp: sd.plan_diagnostics(*_pair(), np.zeros(2), np.zeros(1),
                                                           SPEC, max_entries="9"),
     sd.InvalidInput, "^max_entries "),
    ("threads-float", lambda tmp: sd.set_threads(2.5), sd.InvalidInput, "^thread count "),
    # scales
    ("epsilon-string", lambda tmp: sd.CostSpec(2, "0.1"), sd.InvalidInput, "^epsilon "),
    ("epsilon-none", lambda tmp: sd.CostSpec(2, None), sd.InvalidInput, "^epsilon "),
    ("epsilon-nan", lambda tmp: sd.CostSpec(2, NAN), sd.InvalidInput, "^epsilon "),
    ("epsilon-bool", lambda tmp: sd.CostSpec(2, True), sd.InvalidInput, "^epsilon "),
    ("epsilon-huge-int", lambda tmp: sd.CostSpec(2, 10**400), sd.InvalidInput, "^epsilon "),
    ("solver-epsilon-huge-int", lambda tmp: sd.SolverParams(epsilon=10**400), sd.InvalidInput,
     "^epsilon "),
    ("sigma-huge-int", lambda tmp: sd.MmdKernelSpec("gaussian", sigma=10**400),
     sd.InvalidInput, "^sigma "),
    ("sigma-string", lambda tmp: sd.MmdKernelSpec("gaussian", "1"), sd.InvalidInput, "^sigma "),
    ("sigma-array", lambda tmp: sd.MmdKernelSpec("gaussian", np.array([1.0])), sd.InvalidInput,
     "^sigma "),
    ("tol-none", lambda tmp: sd.SolverParams(0.1, tol=None), sd.InvalidInput, "^tol "),
    ("dt-string", lambda tmp: FlowConfig(loss="mmd-energy", dt="0.1"), sd.InvalidInput, "^dt "),
    ("t-end-nan", lambda tmp: FlowConfig(loss="mmd-energy", t_end=NAN), sd.InvalidInput,
     "^t_end "),
    ("record-times-string", lambda tmp: FlowConfig(loss="mmd-energy", t_end=1.0,
                                                   record_times="0.5"),
     sd.InvalidInput, "^record_times "),
    ("record-times-number", lambda tmp: FlowConfig(loss="mmd-energy", t_end=1.0,
                                                   record_times=0.5),
     sd.InvalidInput, "^record_times "),
    ("record-times-none-entry", lambda tmp: FlowConfig(loss="mmd-energy", t_end=1.0,
                                                       record_times=[0.5, None]),
     sd.InvalidInput, "^record_times "),
    ("record-times-nan-entry", lambda tmp: FlowConfig(loss="mmd-energy", t_end=1.0,
                                                      record_times=[NAN]),
     sd.InvalidInput, "^record_times "),
    ("soft-min-epsilon-string", lambda tmp: soft_min([1.0], [0.0], "1"), sd.InvalidInput,
     "^epsilon "),
    # arrays
    ("weights-string", lambda tmp: sd.from_arrays("ab", [0.0, 1.0]), sd.InvalidInput,
     "^weights "),
    ("weights-nan", lambda tmp: sd.from_arrays([NAN, 1.0], [0.0, 1.0]), sd.InvalidInput,
     "^weights "),
    ("positions-ragged", lambda tmp: sd.from_arrays([0.5, 0.5], [[0.0], [1.0, 2.0]]),
     sd.InvalidInput, "^positions "),
    ("positions-complex", lambda tmp: sd.from_arrays([1.0], np.array([[1 + 2j]])),
     sd.InvalidInput, "^positions "),
    ("weights-complex", lambda tmp: sd.from_arrays(np.array([1 + 0j]), [0.0]), sd.InvalidInput,
     "^weights "),
    ("pot-complex", lambda tmp: lse_rows(ReductionPlan(1, 2), np.zeros(2), np.zeros(2, complex),
                                         np.zeros((2, 1)), np.zeros((1, 1)), SPEC),
     sd.InvalidInput, "^pot "),
    ("warm-f-string", lambda tmp: evaluate("sinkhorn", *_pair(), params=PARAMS,
                                           warm={"f": "abc"}),
     sd.InvalidInput, "^init_f "),
    ("init-f-ragged", lambda tmp: sd.sinkhorn(*_pair(), PARAMS, init_f=[[1], [1, 2]]),
     sd.InvalidInput, "^init_f "),
    ("logw-strings", lambda tmp: lse_rows(ReductionPlan(1, 2), ["a", "b"], np.zeros(2),
                                          np.zeros((2, 1)), np.zeros((1, 1)), SPEC),
     sd.InvalidInput, "^logw "),
    ("phi-string", lambda tmp: softmin(_pair()[0], "abc", SPEC, [0.0]), sd.InvalidInput,
     "^phi "),
    ("query-points-string", lambda tmp: softmin(_pair()[0], np.zeros(2), SPEC, "ab"),
     sd.InvalidInput, "^query_points "),
    ("soft-min-values-string", lambda tmp: soft_min([1.0], "abc", 1.0), sd.InvalidInput,
     "^values "),
    ("soft-min-weights-shape", lambda tmp: soft_min([[1.0]], [[0.0]], 1.0), sd.InvalidInput,
     "^weights "),
    ("cost-string", lambda tmp: sd.cost(SPEC, "ab", [0, 1]), sd.InvalidInput, "^x "),
    ("kernel-nan", lambda tmp: sd.mmd_kernel(sd.MmdKernelSpec("energy"), [0.0], [NAN]),
     sd.InvalidInput, "^y "),
    ("dual-value-nan", lambda tmp: sd.dual_value(*_pair(), np.array([0.0, NAN]), np.zeros(1)),
     sd.InvalidInput, "^f "),
    ("dual-value-shape", lambda tmp: sd.dual_value(*_pair(), np.zeros(2), np.zeros((1, 1))),
     sd.InvalidInput, "^g "),
    ("plan-matrix-nan", lambda tmp: sd.plan_matrix(*_pair(), np.zeros(2), [NAN], SPEC),
     sd.InvalidInput, "^g "),
    ("kernel-rows-shape", lambda tmp: sd.kernel_rows(ReductionPlan(1, 2), np.zeros(3),
                                                     np.zeros((2, 1)), np.zeros((1, 1)),
                                                     sd.MmdKernelSpec("energy")),
     sd.InvalidInput, "^weights "),
    ("json-ragged", lambda tmp: sd.load_json(_json(tmp, '{"weights": [1, 1], '
                                                        '"positions": [[0.0], [1.0, 2.0]]}')),
     sd.FormatError, r"ragged\.json: positions "),
]


@pytest.mark.parametrize("call, error, pattern", [row[1:] for row in BAD_INPUTS],
                         ids=[row[0] for row in BAD_INPUTS])
def test_bad_inputs_raise_a_library_error_naming_the_argument(tmp_path, call, error, pattern):
    with pytest.raises(error, match=pattern):
        call(tmp_path)


def test_valid_edge_inputs_pass_with_the_same_bits():
    a, b = _pair()
    numpy_params = sd.SolverParams(np.float64(0.5), p=np.int64(2), tol=np.float64(1e-9),
                                   max_iters=np.int64(50), symmetric_max_iters=np.int64(0))
    plain = sd.sinkhorn(a, b, sd.SolverParams(0.5, tol=1e-9, max_iters=50))
    state = sd.sinkhorn(a, b, numpy_params)
    assert np.array_equal(state.f, plain.f) and np.array_equal(state.g, plain.g)
    assert sd.SolverParams(0.1, tol=0, symmetric_max_iters=0).tol == 0
    assert sd.sample_unit_square(np.int64(2), seed=1).n_atoms == 2
    plan = ReductionPlan(np.int64(3), np.int64(3), tile_size=np.int64(2))
    assert np.array_equal(_first_reduction(plan), _first_reduction(ReductionPlan(3, 3)))
    assert sd.set_threads(np.int64(1)) == 1
    sd.CostSpec(1, np.float32(0.1))
    sd.MmdKernelSpec("laplacian", np.float64(0.5))
    assert soft_min([1.0], [2.0], np.float64(1.0)) == soft_min([1.0], [2.0], 1.0)
    FlowConfig(loss="mmd-energy", dt=np.float64(0.1), t_end=0, record_times=[np.float64(0.0)])
    FlowConfig(loss="mmd-energy", dt=0.5, t_end=np.float64(1.0), record_times=())
