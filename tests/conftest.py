"""One hypothesis profile for the suite: no deadline (exact arithmetic has
slow examples), derandomized examples and no example database, so every run
draws the same cases.  Tests set only their max_examples."""

from hypothesis import settings

settings.register_profile("wreatho", deadline=None, derandomize=True, database=None)
settings.load_profile("wreatho")
