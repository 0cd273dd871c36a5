"""Shows that every reference check of the benchmark rejects a perturbed
output, so none of them is vacuous.

    python3 perfbench/selfcheck.py

Runs each figure subcommand and validate-oracles once on the shipped
scenarios, and the lib-research exposure sweeps once in process.  Each check
must accept the program's own output and reject every perturbation: one
value scaled by a small factor, an oracle budget loosened, a check id
dropped, one output byte changed.  Exits 1 if a clean output is rejected or a
perturbed one is accepted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _data_rows(text):
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines, first


def scale_cell(text, row, col, factor):
    """The CSV with one cell multiplied by ``factor``."""
    lines, first = _data_rows(text)
    cells = lines[first + row].split(",")
    cells[col] = f"{float(cells[col]) * factor:.8e}"
    lines[first + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def set_cells(text, row, values):
    lines, first = _data_rows(text)
    cells = lines[first + row].split(",")
    for col, value in values.items():
        cells[col] = f"{value:.8e}"
    lines[first + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_row(text, row):
    lines, first = _data_rows(text)
    del lines[first + row]
    return "\n".join(lines) + "\n"


def scale_json_cell(text, row, col, factor):
    record = json.loads(text)
    record["rows"][row][col] *= factor
    return json.dumps(record, indent=1) + "\n"


def _validate_cases(text):
    import refs
    cases = []
    for cid, name, op, bound in refs.ORACLE_CHECKS:
        # a budget loosened in the program: the value breaks the benchmark's
        # bound while the program's own budget and passed columns accept it
        broken = bound / 1.5 if op == "ge" else bound * 1.5
        loose = broken / 2.0 if op == "ge" else broken * 2.0
        cases.append((f"{name} budget loosened",
                      set_cells(text, cid, {1: broken, 2: loose, 3: 1.0})))
    cases.append(("steady_l2 check id dropped", drop_row(text, 0)))
    cases.append(("mc_exposure_sigmas check id dropped", drop_row(text, 10)))
    return cases


def main():
    ctx = workloads.Context(ROOT, ROOT / ".perfbench_work" / "selfcheck", seed=1, traced=False)
    ctx.fresh()
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        (ctx.inputs / path.name).write_bytes(path.read_bytes())
    import checks

    outputs = {}
    descriptions = workloads.cli_descriptions(ctx)
    descriptions.append(("validate", ["validate-oracles", "--scenario",
                                      str(ctx.inputs / "validate.json")], "check_validate", None))
    for name, argv, check, params in descriptions:
        op = workloads.CliOp(name, name, argv, None, params, byte_reference=False)
        if op.execute(ctx, 0).exit_code != 0:
            print(f"{name}: the program failed; nothing to check", file=sys.stderr)
            return 1
        outputs[name] = (op.path(ctx, 0).read_text(), getattr(checks, check), params)

    cases = {
        "field": [("one concentration x (1 + 1e-6)", lambda t: scale_cell(t, 40000, 3, 1 + 1e-6)),
                  ("one y coordinate x (1 + 1e-6)", lambda t: scale_cell(t, 100, 1, 1 + 1e-6))],
        "timeseries": [("one value x (1 + 1e-6)", lambda t: scale_cell(t, 600, 1, 1 + 1e-6))],
        "freq": [("one magnitude x (1 + 1e-6)", lambda t: scale_cell(t, 80, 1, 1 + 1e-6)),
                 ("one phase x (1 + 1e-6)", lambda t: scale_cell(t, 80, 2, 1 + 1e-6))],
        "conc_vs_dist": [("one ratio x 1.02", lambda t: scale_cell(t, 14, 2, 1.02)),
                         ("one ratio x 0.98", lambda t: scale_cell(t, 14, 2, 0.98))],
        "delay": [("one delay x (1 - 1e-6)", lambda t: scale_cell(t, 7, 2, 1 - 1e-6)),
                  ("one delay x (1 + 1e-5)", lambda t: scale_cell(t, 7, 2, 1 + 1e-5))],
        "pmd": [("one pmd_exact x (1 + 1e-5)", lambda t: scale_cell(t, 4, 3, 1 + 1e-5)),
                ("one pmd_conservative x (1 + 1e-5)", lambda t: scale_cell(t, 4, 2, 1 + 1e-5)),
                ("one interval upper x 0.9", lambda t: scale_cell(t, 35, 6, 0.9))],
        "mc_pmd": [("one analytic Q x (1 + 1e-6)", lambda t: scale_cell(t, 2, 1, 1 + 1e-6)),
                   ("one interval lower x 1.05", lambda t: scale_cell(t, 2, 3, 1.05))],
        "validate": None,
    }
    failures = 0
    rows = []
    for name, (text, check, params) in outputs.items():
        clean = check(text, params)
        rows.append((name, "program output as written", "accepted" if not clean else "REJECTED"))
        failures += bool(clean)
        perturbed = (_validate_cases(text) if name == "validate"
                     else [(label, fn(text)) for label, fn in cases[name]])
        for label, text_p in perturbed:
            problems = check(text_p, params)
            rows.append((name, label, "rejected" if problems else "ACCEPTED"))
            failures += not problems

    # field as JSON, through the lib-research path
    ctx.import_program()
    raw = json.loads((ctx.inputs / "field.json").read_text())
    field = workloads.TableOp("field_json", "field_json", raw, "json", None, None)
    field.execute(ctx, 0)
    text = field.path(ctx, 0).read_text()
    params = outputs["field"][2]
    for label, text_p in (("program output as written", text),
                          ("one concentration x (1 + 1e-6)",
                           scale_json_cell(text, 40000, 3, 1 + 1e-6))):
        problems = checks.check_field(text_p, params)
        clean = label.startswith("program")
        ok = not problems if clean else bool(problems)
        rows.append(("field_json", label, ("accepted" if not problems else "REJECTED") if clean
                     else ("rejected" if problems else "ACCEPTED")))
        failures += not ok

    # exposure sweeps: one value scaled by (1 + 2e-3)
    inputs = workloads.lib_inputs(1)
    for key, orders in (("breath", workloads.DEFAULT_ORDERS), ("vark", workloads.VARK_ORDERS)):
        op = workloads.ExposureOp(key, key, inputs[key], orders)
        op.prepare(ctx)
        values = op.execute(ctx, 0).value
        reference = checks.exposure_reference(op.params)
        bent = list(values)
        bent[1] *= 1 + 2e-3
        for label, vals, want in (("program output as written", values, False),
                                  ("one exposure x (1 + 2e-3)", bent, True)):
            problems = (checks.check_exposures(vals, reference, op.params)
                        + checks.check_exposures_mc(vals, op.params, 5))
            rows.append((f"exposure_{key}", label,
                         ("rejected" if problems else "ACCEPTED") if want
                         else ("accepted" if not problems else "REJECTED")))
            failures += bool(problems) != want

    # byte-for-byte comparison with the first run of a subcommand
    op = workloads.FileOp("bytes", "bytes", "csv", lambda t, p: [], None, byte_reference=True)
    text = outputs["pmd"][0]
    op.path(ctx, "ref").write_text(text)
    op.remember_reference(ctx)
    for index, content in enumerate((text, text.replace("seed: 2024", "seed: 2025"))):
        op.path(ctx, index).write_text(content)
        attempt = workloads.Attempt()
        op.observe(ctx, index, attempt)
    first, second = op.verify(ctx)
    rows.append(("bytes", "identical output", "accepted" if not first else "REJECTED"))
    rows.append(("bytes", "one metadata byte changed", "rejected" if second else "ACCEPTED"))
    failures += bool(first) + (not second)

    width = max(len(r[1]) for r in rows)
    for name, label, verdict in rows:
        print(f"{name:16s} {label:{width}s} {verdict}")
    print(f"{failures} check(s) misbehaved" if failures else "every check rejects its perturbations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
