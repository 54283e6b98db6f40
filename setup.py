"""Setup script (legacy path: the environment's setuptools lacks the wheel
package needed for PEP 660 editable installs, so metadata lives here)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "LiMiT reproduction: precise, low-overhead performance-counter "
        "access on a simulated machine (Demme & Sethumadhavan, ISCA 2011)"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={"dev": ["pytest", "hypothesis"]},
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
            "repro-workbench=repro.cli:main",
        ]
    },
)
