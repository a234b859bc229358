"""The end-to-end expansion benchmark (see README.md in this directory).

Imported as the package ``e2e`` with ``benchmarks/`` on ``sys.path``;
``run.py`` arranges that, so the sibling modules keep their plain names
(``trace``, ``check``) without shadowing the standard library.
"""
