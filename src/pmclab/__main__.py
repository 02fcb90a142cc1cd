"""``python -m pmclab``: the same front end as the ``pmclab`` command."""

from .cli import run

run()
