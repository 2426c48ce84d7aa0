"""``python -m entropygate``: the same CLI as the ``entropygate`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
