"""Run one ``spoofcm`` command in this process, as ``spoofcm.cli.main``.

    python3 perfbench/child.py [--spans FILE] <spoofcm arguments>

With ``--spans`` the layer functions are wrapped by ``tracer.Tracer``
first and the spans are written to FILE when the command ends. The
harness runs every timed command through this file, traced or not, so
both kinds of run start the same way. ``src`` must be on PYTHONPATH.
"""
import sys


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if spans_path is None:
        from spoofcm import cli

        return cli.main(argv)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from spoofcm import cli

    try:
        return cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
