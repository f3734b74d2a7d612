from setuptools import setup

# All metadata lives in pyproject.toml; setuptools rejects duplicating
# [project] fields here.
setup()
