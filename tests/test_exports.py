"""Every name the package exports resolves on it, and importing it stays cheap."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import graphdyn

SRC = Path(graphdyn.__file__).parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in graphdyn.__all__ if not hasattr(graphdyn, name)]
    assert missing == []
    assert len(set(graphdyn.__all__)) == len(graphdyn.__all__)


def _scipy_modules_after(script: str, tmp_path) -> list:
    """The scipy modules loaded once `script` has run in a fresh interpreter
    on this checkout's sources, with `tmp_path` as its working directory."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")])}
    code = textwrap.dedent(script) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy."))))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_chain_the_metrics_and_the_sampler_run_without_scipy(tmp_path):
    # scipy.special takes about 0.3 s to load; only the diffusion's drift and
    # Gaussian tail and an entropy-weighted energy need it
    loaded = _scipy_modules_after("""
        import numpy as np
        import graphdyn, graphdyn.cli
        from graphdyn import StepKernel, save_kernel_text

        save_kernel_text(StepKernel(np.array([[0.8, 0.2], [0.2, 0.4]])), "a.txt")
        save_kernel_text(StepKernel(np.array([[0.4, 0.2], [0.2, 0.8]])), "b.txt")
        configs = {
            "metropolis": "[metropolis]\\nn = 8\\nr = 2\\nbeta = 0.5\\nsigma = 1\\n"
                          "gamma_n = 0.5\\niterations = 3\\n\\n[hamiltonian]\\n"
                          "term.triangle = 1.0\\nterm.edge = -0.25\\n",
            "metrics": "[metrics]\\nkind = stepkernel\\na = a.txt\\nb = b.txt\\n",
            "sample": "[sample]\\nwhat = esbm\\nn = 4\\nr = 2\\np = 0.5\\nseed = 3\\n",
        }
        for mode, text in configs.items():
            with open(mode + ".ini", "w") as fh:
                fh.write(text)
            assert graphdyn.cli.main([mode, "--config", mode + ".ini", "--out", mode]) == 0
    """, tmp_path)
    assert loaded == []


@pytest.mark.parametrize("script", [
    """
    import numpy as np
    from graphdyn import SdeConfig, StepKernel, run_sde, triangle_edge_hamiltonian

    cfg = SdeConfig(r=2, beta=1.0, sigma=0.1, dt=0.5, h=triangle_edge_hamiltonian(),
                    horizon_t=0.5)
    assert len(run_sde(cfg, StepKernel.constant(2, 0.5))) == 2
    """,
    """
    from graphdyn import Hamiltonian, StepKernel

    assert Hamiltonian((), entropy_weight=1.0).evaluate(StepKernel.constant(2, 0.5)) < 0
    """,
], ids=["run_sde", "entropy"])
def test_the_diffusion_and_the_entropy_load_scipy_special_on_first_use(tmp_path, script):
    assert "scipy.special" in _scipy_modules_after(
        "import sys\nimport graphdyn\nassert 'scipy' not in sys.modules\n"
        + textwrap.dedent(script), tmp_path)


def _eager_imports(node):
    """The modules that node's import statements load when its module is
    imported: every import outside a function body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        yield node.module or ""
    for child in ast.iter_child_nodes(node):
        yield from _eager_imports(child)


def test_no_module_imports_scipy_at_module_level():
    # an eager import in any module would load scipy.special for every run
    eager = [(path.name, name)
             for path in sorted(Path(graphdyn.__file__).parent.glob("*.py"))
             for name in _eager_imports(ast.parse(path.read_text()))
             if name == "scipy" or name.startswith("scipy.")]
    assert eager == []
