"""The build cache of the compiled coupled derivative.

dynamics._load_kernel builds _dynamics.c into a cache directory under a
name tagged with the source and flags; a build removes the finished builds
of other tags there, and nothing else.
"""

from importlib.machinery import EXTENSION_SUFFIXES

import pytest

from slungsim import dynamics


@pytest.mark.skipif(dynamics.KERNEL != "c",
                    reason="no C compiler built the kernel")
def test_build_removes_only_stale_builds(tmp_path):
    suffix = EXTENSION_SUFFIXES[0]
    stale = f"_dynamics.0123abcd{suffix}"
    # another process's build in progress, and a file that is no build
    kept = {f"_dynamics.89abcdef{suffix}.4242.tmp",
            f"_dynamics.notahex{suffix}"}
    for name in (stale, *kept):
        (tmp_path / name).write_bytes(b"x")
    assert dynamics._load_kernel(cache_dir=str(tmp_path)) is not None
    built = {p.name for p in tmp_path.iterdir()} - kept
    assert len(built) == 1 and stale not in built
    assert built.pop().startswith("_dynamics.")
