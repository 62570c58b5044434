"""Hypothesis profiles for the property tests of this suite.

``pytest tests/matching/test_properties.py --hypothesis-profile=deep``
(or any other property file) runs every test that does not fix its own
example count with ten times the default number of examples.
"""

from hypothesis import settings

settings.register_profile(
    "deep", max_examples=10 * settings.get_profile("default").max_examples
)
