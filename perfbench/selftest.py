"""Self-test of the benchmark's references and checks.

    python3 perfbench/selftest.py

1. The references reproduce textbook closed forms (spherical Laplacian of
   r^2 is 6, divergence of r d_r is 3, Gamma^1_22 = -r, ...), and the
   hand-written table-chart derivatives match its coefficient tables.
2. One cycle of every workload runs against the program; every job must
   pass its check, and the jobs whose grids reach the poles or the table
   chart's bounds must report skipped points without failing.
3. Every job's output is then spoiled in each way its check guards
   against; each spoiled output must count as a failed job, and the
   failed fraction must equal spoiled / attempted.
4. The tracer refuses to install, and wraps nothing, when a function it
   wraps is missing from the package.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import sys

import run  # first: it pins BLAS to one thread before numpy loads

import numpy as np

import reference as ref
import spans
import workloads

FAILURES = []


def expect(ok, what):
    if not ok:
        FAILURES.append(what)
        print(f"SELFTEST FAIL: {what}")


def closed_forms(ref, np):
    rng = np.random.default_rng(7)
    Y = np.stack([rng.uniform(0.5, 3.0, 50), rng.uniform(0.3, 2.8, 50),
                  rng.uniform(-3.0, 3.0, 50)], axis=1)
    r, t = Y[:, 0], Y[:, 1]
    sph = ref.SphericalGeometry()

    def term(c, p, trig=None):
        return {"coeff": c, "powers": p, "trig": trig or [None, None, None]}

    r2 = [[term(1.0, [2, 0, 0])]]
    close = lambda a, b: bool(np.allclose(a, b, rtol=1e-12, atol=1e-12))
    expect(close(ref.field_op(sph, "laplace", r2, Y), 6.0), "laplace r^2 = 6")
    expect(close(ref.field_op(sph, "grad", r2, Y),
                 np.stack([2 * r, 0 * r, 0 * r], 1)), "grad r^2 = (2r, 0, 0)")
    radial = [[term(1.0, [1, 0, 0])], [term(0.0, [0, 0, 0])], [term(0.0, [0, 0, 0])]]
    expect(close(ref.field_op(sph, "div", radial, Y), 3.0), "div r d_r = 3")
    spin = [[term(0.0, [0, 0, 0])], [term(0.0, [0, 0, 0])], [term(1.0, [0, 0, 0])]]
    expect(close(ref.field_op(sph, "rot", spin, Y),
                 np.stack([2 * np.cos(t), -2 * np.sin(t) / r, 0 * r], 1)),
           "rot d_phi = (2 cos t, -2 sin t / r, 0)")
    G = ref.christoffel(sph, Y)
    for (k, i, j), want in {(0, 1, 1): -r, (0, 2, 2): -r * np.sin(t) ** 2,
                            (1, 0, 1): 1 / r, (1, 2, 2): -np.sin(t) * np.cos(t),
                            (2, 0, 2): 1 / r, (2, 1, 2): 1 / np.tan(t)}.items():
        expect(close(G[:, k, i, j], want) and close(G[:, k, j, i], want),
               f"spherical Gamma^{k + 1}_{i + 1}{j + 1}")

    geom = ref.TableGeometry(0.3, 0.2, -2.0, 2.0)
    config = geom.config()
    Yt = np.stack([rng.uniform(-1.8, 1.8, 50), rng.uniform(-3, 3, 50),
                   rng.uniform(-2, 2, 50)], axis=1)
    fwd = [ref.table_derivatives(c, Yt) for c in config["forward"]]
    X = np.stack([f[0] for f in fwd], 1)
    expect(close(np.stack([f[1] for f in fwd], 1), geom.jacobian(Yt)),
           "table chart S matches its forward table")
    expect(close(np.stack([f[2] for f in fwd], 1), geom.second(Yt)),
           "table chart second derivatives match its forward table")
    back = np.stack([ref.table_derivatives(c, X)[0] for c in config["inverse"]], 1)
    expect(bool(np.allclose(back, Yt, atol=1e-12)), "table chart inverse table is exact")

    A = rng.uniform(-1, 1, (3, 3))
    B = rng.uniform(-1, 1, (3, 3, 3))
    got = ref.nested_sum([(2.0, [("A", "ia"), ("B", "ajb")]), (-1.0, [("B", "kjb")])],
                         ["j", "b"], {"A": A, "B": B})
    want = 2.0 * np.einsum("ia,ajb->jb", A, B) - np.einsum("kjb->jb", B)
    expect(close(got, want), "nested-loop sum matches einsum")
    S = np.eye(3) + 0.3 * rng.uniform(-1, 1, (3, 3))
    T = np.linalg.inv(S)
    x = rng.uniform(-1, 1, (3, 3))
    expect(close(ref.transform(x, 1, 1, S, T), T @ x @ S), "(1,1) transform is T F S")


def spoilers(job, np):
    """(label, spoiled result) pairs for one job's real result."""
    kind = type(job).__name__
    if kind in ("FieldOpJob", "ChristoffelJob", "EvalJob"):
        code, text = job.result
        lines = text.rstrip("\n").split("\n")
        last = lines[-1].rsplit(",", 1) if kind != "EvalJob" else None
        out = [("exit code", (4, text))]
        if kind == "EvalJob":
            record = json.loads(text)
            record["components"][0] += 1e-3
            out.append(("value", (0, json.dumps(record))))
            return out
        bumped = float(last[1]) + 1e-3 * (1 + abs(float(last[1])))
        out.append(("value", (0, "\n".join(lines[:-1] + [last[0] + "," + repr(bumped)]) + "\n")))
        point = lines[-1].split(",")[:3]
        kept = [l for l in lines if l.split(",")[:3] != point]
        out.append(("dropped point", (0, "\n".join(kept) + "\n")))
        if kind == "FieldOpJob":
            swapped = lines[:-1] + [lines[-1].replace(",scalar,", ",^1,").replace(",^3,", ",^2,")]
            out.append(("component path", (0, "\n".join(swapped) + "\n")))
        if kind == "ChristoffelJob":
            big = max(range(1, len(lines)), key=lambda n: abs(float(lines[n].split(",")[6])))
            out.append(("missing symbol", (0, "\n".join(lines[:big] + lines[big + 1:]) + "\n")))
        return out
    if kind == "AuditJob":
        code, text = job.result
        return [("verdict", (5, text.replace("verdict: PASS", "verdict: FAIL"))),
                ("exit code", (5, text))]
    if kind == "CheckJob":
        code, text = job.result
        report, end = json.JSONDecoder().raw_decode(text)
        report["verdict"] = "invalid" if report["verdict"] == "valid" else "valid"
        flipped = json.dumps(report, sort_keys=True, indent=2) + text[end:]
        return [("exit code", (code + 1, text)), ("verdict", (code, flipped))]
    if kind == "ChainJob":
        report, value, explicit = job.result

        class Fake:
            verdict = "valid" if report.verdict == "invalid" else "invalid"
            violations = ()

        out = [("verdict", (Fake(), value, explicit))]
        if value is not None:
            class Off:
                array = np.asarray(value.array) + 1e-3 * (1 + np.abs(value.array))
            out.append(("value", (report, Off(), explicit)))
            out.append(("explicit form", (report, value, explicit + " ")))
        return out
    if kind == "AlgebraJob":
        spoiled = list(job.result)
        spoiled[0] = spoiled[0] + 1e-6
        return [("transform value", tuple(spoiled))]
    raise TypeError(kind)


def tracer_refuses_missing_names(tc):
    notation = tc.notation
    parse, validate = notation.parse, notation.validate
    del notation.parse
    tracer = spans.Tracer(tc)
    try:
        tracer.install()
        expect(False, "tracer installed with notation.parse missing")
    except spans.TraceError as exc:
        expect("notation.parse" in str(exc), f"tracer error does not name the function: {exc}")
    finally:
        tracer.restore()
        notation.parse = parse
    expect(notation.validate is validate and not tracer._undo,
           "tracer left wraps behind after refusing")


def main():
    tc = run._load_program()

    closed_forms(ref, np)
    tracer_refuses_missing_names(tc)
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in workloads.NAMES:
            jobs, _ = workloads.make(name, workdir, tc).cycle(np.random.default_rng(3))
            attempted = failed = spoiled = skipped_ok = 0
            for job in jobs:
                job.result = job.run(tc)
                outcome = run.Pass.judge(job, job.result, None)
                attempted += 1
                failed += bool(outcome.problem)
                expect(outcome.problem is None, f"{name}: {job.kind} clean: {outcome.problem}")
                if getattr(job, "skips", 0):
                    expect(outcome.skipped == job.skips,
                           f"{name}: {job.kind} skipped {outcome.skipped}, expected {job.skips}")
                    skipped_ok += outcome.problem is None
                for label, bad in spoilers(job, np):
                    outcome = run.Pass.judge(job, bad, None)
                    attempted += 1
                    spoiled += 1
                    failed += bool(outcome.problem)
                    expect(outcome.problem is not None, f"{name}: {job.kind} spoiled {label} passed")
            expect(failed == spoiled, f"{name}: failed {failed} != spoiled {spoiled}")
            if name != "notation-algebra":
                expect(skipped_ok >= 2, f"{name}: no job with expected skips")
            print(f"{name}: {attempted} outputs judged, {spoiled} spoiled, "
                  f"failed_frac {failed / attempted:.4f} = {spoiled}/{attempted}, "
                  f"{skipped_ok} jobs with expected domain skips passed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: " + ("PASS" if not FAILURES else f"FAIL ({len(FAILURES)})"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
