#!/usr/bin/env python3
"""Build and run the hpsock host-time benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `hpsock-perfbench` package (release profile, offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs it with the same
arguments plus a host descriptor (rustc version, source revision). The
benchmark's last line of standard output is its JSON result. See
perfbench/README.md.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def revision():
    """The git commit when run from a clone, else a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "third_party", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "target" not in p.parts and BENCH / "out" not in p.parents]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "sim").is_dir():
        fail(f"the simulator sources are missing: {ROOT} must hold the repository "
             "(Cargo.toml, crates/) next to perfbench/")
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        subprocess.run(build, env=env, cwd=ROOT, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, check=True)
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               timeout=30, check=True).stdout.strip()
    except subprocess.TimeoutExpired:
        fail("cargo build timed out", 3)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"cannot build the benchmark: {e}", 3)
    exe = target / "release" / "hpsock-perfbench"
    cmd = [str(exe), *sys.argv[1:], "--rustc", rustc, "--commit", revision()]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
