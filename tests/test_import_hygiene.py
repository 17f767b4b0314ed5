"""Every imported name is used: a stdlib ``ast`` scan of the package modules
(except the re-exporting ``__init__.py``) and of the test files.  The same
scan holds the layering: only the runner and the CLI import ``output``, only
``grids`` transforms in x, and in ``solver`` only ``XSpectrum`` names an
x-transform."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "coesolve").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def unused_imports(path):
    """``file:line: name`` for each imported name the module never references.

    ``import a.b`` counts as used only where ``a.b`` is, not any ``a.*``.
    """
    tree = ast.parse(path.read_text())
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        dotted = _dotted(node)
        if dotted is not None:
            parts = dotted.split(".")
            used.update(".".join(parts[: i + 1]) for i in range(len(parts)))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    offenders = [hit for path in FILES if path.name != "__init__.py" for hit in unused_imports(path)]
    assert offenders == []


def test_the_scan_sees_an_unused_and_a_dotted_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport scipy.linalg\nfrom x import y as z\nscipy.fft.fft(z)\n")
    assert unused_imports(probe) == ["probe.py:1: os", "probe.py:2: scipy.linalg"]


def imports_output(path):
    """Whether the package module at ``path`` imports ``coesolve.output`` in any form."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name in (".output", "coesolve.output") for name in names):
            return True
    return False


def test_only_the_runner_and_the_cli_import_output():
    """Numeric layers return arrays and reports; the runner writes every result file."""
    package = sorted((ROOT / "src" / "coesolve").glob("*.py"))
    assert {path.stem for path in package if imports_output(path)} == {"runner", "cli"}


def test_the_layering_scan_sees_each_import_form(tmp_path):
    forms = ["from .output import write_csv", "from . import output", "import coesolve.output",
             "from coesolve.output import write_json", "from coesolve import output"]
    for i, form in enumerate(forms):
        probe = tmp_path / f"probe{i}.py"
        probe.write_text(form + "\n")
        assert imports_output(probe), form
    probe = tmp_path / "clean.py"
    probe.write_text("from .outputs import x\nfrom .grids import output\nimport output\n")
    assert not imports_output(probe)


FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


def uses_fft(path):
    """Whether the module at ``path`` names an FFT module's ``fft``, ``ifft``,
    ``rfft`` or ``irfft``: ``np.fft.fft``, ``numpy.fft.ifft``,
    ``scipy.fft.fft``, ``fft.fft`` after ``from numpy import fft``, or
    ``from numpy.fft import fft``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "fft":
            if any(alias.name in FFT_NAMES for alias in node.names):
                return True
        if isinstance(node, ast.Attribute) and node.attr in FFT_NAMES:
            dotted = _dotted(node)
            if dotted is not None and dotted.split(".")[-2] == "fft":
                return True
    return False


def test_only_grids_transforms_in_x():
    """Every x-transform goes through ``grids.x_fft``/``x_ifft`` or
    ``x_rfft``/``x_irfft``, which fix the x axis (-2) of ``np.fft`` in one
    place.  ``operators`` keeps ``np.fft`` for the periodic Sturm-Liouville
    eigenbasis: a transform along the operator's y axis (the last axis), not
    the x axis."""
    package = sorted((ROOT / "src" / "coesolve").glob("*.py"))
    assert {path.stem for path in package if uses_fft(path)} == {"grids", "operators"}


def test_the_fft_scan_sees_each_form(tmp_path):
    forms = ["np.fft.fft(v, axis=0)\n", "numpy.fft.ifft(v)\n", "scipy.fft.fft(v)\n",
             "from numpy import fft\nfft.ifft(v)\n", "from numpy.fft import fft\n",
             "from scipy.fft import ifft as inverse\n", "pick = np.fft.ifft\n",
             "np.fft.rfft(v, axis=0)\n", "from numpy.fft import irfft\n"]
    for i, form in enumerate(forms):
        probe = tmp_path / f"probe{i}.py"
        probe.write_text(form)
        assert uses_fft(probe), form
    probe = tmp_path / "clean.py"
    probe.write_text("np.fft.fftfreq(8)\nscipy.fft.dstn(v)\nfrom numpy.fft import fftfreq\n"
                     "grid.fft(v)\nx_fft(v)\n")
    assert not uses_fft(probe)


X_TRANSFORMS = {"x_fft", "x_ifft", "x_rfft", "x_irfft"}


def named(path):
    """Every name the module at ``path`` uses, reads as an attribute or imports."""
    return names_of(ast.parse(path.read_text()))


def names_of(tree):
    """Every name the syntax tree uses, reads as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update({node.name.split(".")[-1], node.asname})
    return out


def test_only_the_x_spectrum_chooses_the_rows_of_a_solve():
    """``evolution`` and ``bvp`` transform in x only through the
    ``XSpectrum`` of ``DiscretizedProblem.x_spectrum``, so the choice between
    all n rows and the n/2 + 1 real ones is made in ``solver`` alone."""
    for stem in ("evolution", "bvp"):
        assert named(ROOT / "src" / "coesolve" / f"{stem}.py") & X_TRANSFORMS == set(), stem


def test_the_name_scan_sees_each_form(tmp_path):
    forms = ["from .grids import x_rfft\n", "from .grids import x_fft as fwd\n",
             "grids.x_ifft(v)\n", "pick = x_irfft\n", "import coesolve.grids.x_fft\n"]
    for i, form in enumerate(forms):
        probe = tmp_path / f"probe{i}.py"
        probe.write_text(form)
        assert named(probe) & X_TRANSFORMS, form
    probe = tmp_path / "clean.py"
    probe.write_text("spec.forward(v)\nx_multiply(v, s)\n# x_fft\n'x_rfft'\n")
    assert not named(probe) & X_TRANSFORMS



def x_transform_users(path):
    """The top-level statements of the module at ``path``, imports aside, that
    name an x-transform: a definition by its name, anything else by its line."""
    return {getattr(node, "name", f"line {node.lineno}")
            for node in ast.parse(path.read_text()).body
            if not isinstance(node, (ast.Import, ast.ImportFrom)) and names_of(node) & X_TRANSFORMS}


def test_only_the_x_spectrum_transforms_in_the_solver():
    """``apply_operator``, ``solve_linear`` and the rest of ``solver`` take their
    x-transforms from an ``XSpectrum``, as they take den, N and eta from it."""
    assert x_transform_users(ROOT / "src" / "coesolve" / "solver.py") == {"XSpectrum"}


def test_the_solver_scan_sees_each_user(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .grids import x_fft, x_ifft\n"
                     "class XSpectrum:\n    def forward(self, v):\n        return x_fft(v)\n"
                     "def apply_operator(u):\n    return grids.x_ifft(u)\n"
                     "pick = x_irfft\n"
                     "def solve_linear(spec, f):\n    return spec.inverse(spec.forward(f))\n")
    assert x_transform_users(probe) == {"XSpectrum", "apply_operator", "line 7"}
