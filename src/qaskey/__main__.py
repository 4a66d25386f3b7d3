"""``python -m qaskey ...`` runs the command-line front end."""

from .cli import app

app()
