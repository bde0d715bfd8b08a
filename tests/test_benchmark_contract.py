"""The benchmark's instrumentation contract.  perfbench's tracer replaces the
program's entry points by name in the modules that call them (for example
``cli.run_experiment`` and ``cli.read_records``), so each of those names must
exist where it looks, a traced pass must reach every span its workload
requires, and tracing must not change what the commands write.  perfbench's
own tests check ``instrument`` on stand-in modules only."""
import contextlib
import io
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import fingerprint  # noqa: E402
from run import SRC, _program_modules, reference_energies, stage_argv  # noqa: E402


def _pass(workload, input_path, out, modules, ref, tracer=None) -> str:
    """One pass through the workload's commands via ``cli.main``, traced if
    a tracer is given; the fingerprint of what it wrote."""
    out.mkdir()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        if tracer is not None:
            stack.enter_context(tracing.instrument(tracer, modules))
        stages = stage_argv(workload, input_path, out, ref)
        codes = {stage: modules["cli"].main(argv) for stage, argv in stages}
    assert codes == dict.fromkeys(codes, 0)
    runs_csv = out / "runs.csv" if workload.is_grid else input_path
    return fingerprint(runs_csv, [out / "analyze", out / "rank"])


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_traced_pass_covers_its_spans_and_writes_what_an_untraced_pass_writes(tmp_path, name):
    workload = inputs.WORKLOADS[name]
    modules = _program_modules()
    input_path = inputs.write_inputs(workload, 0, SRC / "vqebench" / "data", tmp_path / "input")
    ref, tracer = reference_energies(), tracing.Tracer()
    untraced = _pass(workload, input_path, tmp_path / "untraced", modules, ref)
    traced = _pass(workload, input_path, tmp_path / "traced", modules, ref, tracer)
    assert tracing.missing_spans(name, tracing.summarize(tracer.spans)) == []
    assert traced == untraced
