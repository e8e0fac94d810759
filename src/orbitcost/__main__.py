import gc

gc.disable()  # before the imports too; cli.run explains why no collection is needed

from .cli import run  # noqa: E402

run()
