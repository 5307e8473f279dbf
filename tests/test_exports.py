"""Every exported name of the package and of its modules resolves, and the
package's list is its modules' lists."""

from __future__ import annotations

import bisect
import importlib
import pkgutil

import gracecode

# the modules whose __all__ the package re-exports, in the package's order
MODULES = ("channels", "ensemble", "exactdec", "bp", "efun", "devo", "converse", "optimize")

# the 60 names the package exported when it listed them by hand
LISTED = {
    "channels": ("ChannelParam", "ReceivedWord", "BMSummary", "transmit", "bms_metrics", "matched_surrogates",
                 "mgl_variant_check", "h_b", "h_b_inv"),
    "ensemble": ("CheckKind", "DegreeProfile", "EnsembleSpec", "FactorGraph", "sample_graph", "encode",
                 "degree_stats", "serialize_graph", "parse_graph", "parse_profile", "serialize_profile",
                 "InfeasibleSpecError", "SamplingFailureError"),
    "exactdec": ("BitMatrix", "HrankResult", "rank_hrank", "subsample", "map_ber_linear", "ContradictionError"),
    "bp": ("BeliefState", "DecodeResult", "run_bp", "measure"),
    "efun": ("EPolynomial", "MessageAlphabet", "EFunctionFamily", "f_alphabet", "error_poly", "build_family",
             "d_function", "first_zero"),
    "devo": ("DETrace", "DEBounds", "iterate", "bounds_from_traces", "fixed_point", "large_d_bound"),
    "converse": ("ExitResult", "shannon_single_point", "linear_single_point", "linear_two_point",
                 "general_two_point", "area_two_point", "repetition_domination", "exit_tools",
                 "threshold_comparison"),
    "optimize": ("OptProblem", "OptResult", "objective", "optimize_profile", "project_simplex"),
}


def test_all_exports_resolve():
    names = [info.name for info in pkgutil.iter_modules(gracecode.__path__)]
    for module in [gracecode, *(importlib.import_module(f"gracecode.{name}") for name in names)]:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_list_is_the_module_lists():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"gracecode.{name}").__all__
    assert gracecode.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_listed_names_are_the_module_objects():
    assert sum(map(len, LISTED.values())) == 60
    for module_name, names in LISTED.items():
        module = importlib.import_module(f"gracecode.{module_name}")
        for name in names:
            assert name in gracecode.__all__, name
            assert getattr(gracecode, name) is getattr(module, name), name


def test_star_import_keeps_the_standard_bisect():
    # channels.bisect is a helper of efun and converse, not a public name
    assert "bisect" not in gracecode.__all__
    for source in ("gracecode", "gracecode.channels"):
        namespace = {}
        exec(f"import bisect\nfrom {source} import *", namespace)
        assert namespace["bisect"] is bisect, source
