"""The package's shape: every definition in it is used by it or overrides
a method of a base class from outside it, one module, through one reader
and one writer, holds the CSV format, the same module holds the base64
payloads of float arrays, one function calls numpy's text
reader, one module holds the combination labels, one builds the messages
that name a stage to rerun, only the functions that turn outside input
into program values raise ValueError, and every layer that the benchmark
traces exists under the name it wraps, with the parameter names its counts
read."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import roadgrade
from roadgrade import (data, explain, grading, graphs, metrics, model, optim,
                       pipeline, tensor)

MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(Path(roadgrade.__file__).parent.glob("*.py"))}


def _nodes(kind):
    return [(name, node) for name, tree in MODULES.items()
            for node in ast.walk(tree) if isinstance(node, kind)]


def _overrides_of_imported_bases():
    """The methods that override a method of a class imported from outside
    the package, which that class's own code calls."""
    methods = set()
    for module, cls in _nodes(ast.ClassDef):
        owner = importlib.import_module(f"roadgrade.{Path(module).stem}")
        bases = [base for base in getattr(owner, cls.name).__mro__[1:]
                 if not base.__module__.startswith("roadgrade")]
        methods |= {node for node in cls.body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and any(node.name in vars(base) for base in bases)}
    return methods


def test_every_definition_is_referenced_from_the_package():
    referenced = {node.id for _, node in _nodes(ast.Name)}
    referenced |= {node.attr for _, node in _nodes(ast.Attribute)}
    overrides = _overrides_of_imported_bases()
    defined = _nodes((ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    unused = sorted(f"{module}: {node.name}" for module, node in defined
                    if not (node.name.startswith("__")
                            and node.name.endswith("__"))
                    and node.name not in referenced
                    and node not in overrides)
    assert unused == []


def _importers(name):
    importers = {module for module, node in _nodes(ast.Import)
                 if any(alias.name == name for alias in node.names)}
    importers |= {module for module, node in _nodes(ast.ImportFrom)
                  if node.module == name}
    return importers


def test_only_data_imports_csv():
    assert _importers("csv") == {"data.py"}


def test_only_data_imports_base64():
    assert _importers("base64") == {"data.py"}


def test_one_function_reads_and_one_writes_csv():
    functions = _nodes((ast.FunctionDef, ast.AsyncFunctionDef))
    callers = {}
    for module, call in _nodes(ast.Call):
        func = call.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "csv"
                and func.attr in ("reader", "writer")):
            around = [node.name for name, node in functions
                      if name == module and call in ast.walk(node)]
            callers.setdefault(func.attr, []).append((module, *around))
    assert callers == {"reader": [("data.py", "read_csv_rows")],
                       "writer": [("data.py", "_csv_text")]}


def test_one_function_calls_numpys_text_reader():
    functions = _nodes((ast.FunctionDef, ast.AsyncFunctionDef))
    callers = [(module, *(node.name for name, node in functions
                          if name == module and call in ast.walk(node)))
               for module, call in _nodes(ast.Call)
               if getattr(call.func, "attr", getattr(call.func, "id", None))
               == "loadtxt"]
    assert callers == [("data.py", "_read_plain")]


def test_only_model_names_the_combination_letters():
    letters = {"GRAPH_LETTERS", "RESOLUTION_LETTERS"}
    namers = {module for module, node in _nodes(ast.Name)
              if node.id in letters}
    namers |= {module for module, node in _nodes(ast.Attribute)
               if node.attr in letters}
    namers |= {module for module, node in _nodes(ast.alias)
               if node.name in letters}
    assert namers == {"model.py"}


def test_only_data_builds_a_rerun_message():
    docstrings = {id(node.value) for _, node in _nodes(ast.Expr)}
    builders = {module for module, node in _nodes(ast.Constant)
                if isinstance(node.value, str) and id(node) not in docstrings
                and re.search(r"\brerun\b", node.value)}
    assert builders == {"data.py"}


# where outside input becomes program values; each caller turns the
# ValueError into a data or config error, and the functions past these
# trust their arguments
INPUT_BOUNDARIES = {
    ("data.py", "TrafficSeries.__post_init__"),
    ("graphs.py", "RoadNetwork.__post_init__"),
    ("model.py", "ModelConfig.__post_init__"),
    ("data.py", "_parse_hour"),
    ("explain.py", "read_attention_record"),
}


def test_only_the_input_boundaries_raise_value_error():
    scopes = _nodes((ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    raisers = set()
    for module, node in _nodes(ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if getattr(exc, "id", None) == "ValueError":
            raisers.add((module, ".".join(
                scope.name for name, scope in scopes
                if name == module and node in ast.walk(scope))))
    assert sorted(raisers - INPUT_BOUNDARIES) == []


# the attributes the benchmark's tracer wraps, by owner; it skips a missing
# one, so a renamed layer would read 0 there silently
TRACED_LAYERS = {
    pipeline: ("load_inputs",),
    graphs: ("read_network_csv", "write_adjacency_csv", "build_topological",
             "build_weighted_topological", "build_pattern_graph",
             "build_attribute_graph", "normalize_adjacency",
             "global_morans_i", "local_morans_i"),
    graphs.GraphSet: ("build",),
    grading: ("label_series", "som_train", "som_assign", "ordinalize"),
    data: ("read_measurements_csv", "read_grades_csv", "write_grades_csv",
           "minmax_normalize", "enumerate_samples"),
    metrics: ("accuracy", "quadratic_weighted_kappa", "grade_mae_series"),
    explain: ("read_attention_record", "write_attention_record",
              "build_report", "write_report_csv"),
    model: ("init_state", "train", "predict_many", "forward",
            "build_combinations", "shared_gcn_layer", "channel_fuse",
            "temporal_attention", "highdim_attention", "fc_head", "nll_loss",
            "save_checkpoint", "load_checkpoint", "adam_step"),
    optim.ParamSet: ("copy_values",),
    tensor.Tensor: ("backward",),
}

# the parameters whose arguments the tracer's count hooks read by name: a
# rename would zero a count, or fail the traced run with a KeyError
COUNTED_PARAMETERS = {
    graphs.build_pattern_graph: ("history", "window", "pattern_hours"),
    grading.som_train: ("samples", "max_iter"),
    model.save_checkpoint: ("path",),
}


def test_every_traced_layer_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, names in TRACED_LAYERS.items() for name in names
               if not callable(getattr(owner, name, None))]
    assert missing == []


def test_every_counted_parameter_exists():
    missing = [f"{function.__name__}({name})"
               for function, names in COUNTED_PARAMETERS.items()
               for name in names
               if name not in inspect.signature(function).parameters]
    assert missing == []
