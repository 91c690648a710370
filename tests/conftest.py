import os

# `pythonpath` in pyproject.toml puts src/ on this process's path; the CLI
# tests start `python -m bosepauli` in child processes, which need it too.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
