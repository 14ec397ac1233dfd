"""``python -m hyperdec``: the same command line as the ``hyperdec`` script."""

from hyperdec.cli import main

if __name__ == "__main__":
    main()
