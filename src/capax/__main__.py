"""Entry point for `python -m capax`."""
import sys

from capax import cli

sys.exit(cli.main())
