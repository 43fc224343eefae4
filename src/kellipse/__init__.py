"""k-ellipses in metric spaces.

A k-ellipse is the set of points whose distances to k foci sum to a constant
radius. The package computes these level sets (exactly on the line, traced in
2D/3D), finds the minimum radius at the geometric median, verifies classical
contraction-style conditions that make a self-map fix a k-ellipse, and
analyzes piecewise-affine maps such as the SReLU activation exactly.
"""
from .geometry import (KEllipse, LevelSolution1D, PointClass, SolutionKind,
                       SolverError, SumField, classify, members_finite,
                       min_radius, nonempty, solve_1d, weiszfeld)
from .intervals import Interval, IntervalUnion
from .metric import AxiomReport, Metric, Point, Space, as_point, sample_points, verify_metric_axioms
from .piecewise import (FixedSet1D, PiecewiseAffine1D, fixed_kellipse_radii,
                        fixed_point_set, is_fixed_kellipse, srelu)
from .scene import Scene, SceneError, fixture_names, fixture_path, fixture_scene, load_scene
from .tracer import (CloudResult, Polyline, TraceConfig, TraceResult, export_csv,
                     export_svg, parse_csv_points, sample_3d, trace_2d)
from .verifier import (Affine1D, ConditionReport, ConfigurationError,
                       ConstantPoint, Identity, InFiniteSet, InHalfspace,
                       OnEllipse, Otherwise, Rational1D, SamplePlan, SelfMap,
                       TheoremVerdict, certify, check_condition,
                       check_identity_condition, default_plan,
                       exhaustive_plan, fixed_points_on, make_fixing_map,
                       selfmap_from_piecewise)

__version__ = "0.1.0"
