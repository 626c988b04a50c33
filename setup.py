"""Build script: compiles the optional C kernel core.

The package is fully functional without the extension (a pure-Python
twin of every kernel ships in ``pktsample.kernels.pure``).  Building
needs only a C compiler; without one the build warns and the package
falls back to the pure backend.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Try to build the extension; fall back to pure Python on failure."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            "WARNING: building the pktsample native kernels failed "
            f"({exc!r}); falling back to the pure-Python backend."
        )


setup(
    ext_modules=[
        Extension("pktsample.kernels._native", ["src/pktsample/kernels/_native.c"])
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
