# The serving-tier image: `repro-ksir server` on its bundled ASGI server.
#
#   docker build -t repro-ksir-server .
#   docker run -p 8000:8000 repro-ksir-server
#   docker run -p 8000:8000 repro-ksir-server --profile twitter-small --preload
#
# Arguments after the image name are passed straight to `repro-ksir server`,
# so any CLI flag (profile, checkpoint restore, engine tuning) works
# unchanged.  Mount a volume on /data to keep checkpoints across container
# restarts; request telemetry is counted in the process and starts from zero.

FROM python:3.12-slim AS runtime

ENV PYTHONDONTWRITEBYTECODE=1 \
    PYTHONUNBUFFERED=1 \
    PIP_NO_CACHE_DIR=1

WORKDIR /app

# Install the package; the serving tier needs nothing beyond it.  The source
# tree is small; a single-stage copy keeps the build dependency-free.
COPY pyproject.toml README.md ./
COPY src ./src
RUN pip install .

# Checkpoint volume.
RUN mkdir -p /data
VOLUME ["/data"]

EXPOSE 8000

# Liveness probe against the lock-free /healthz endpoint (the slim image
# ships no curl; urllib is always there).  Use /readyz instead for
# orchestrator readiness gates — it also checks shard health.
HEALTHCHECK --interval=30s --timeout=5s --start-period=10s --retries=3 \
    CMD ["python", "-c", \
         "import urllib.request; urllib.request.urlopen('http://127.0.0.1:8000/healthz', timeout=4)"]

ENTRYPOINT ["repro-ksir", "server", "--host", "0.0.0.0", "--port", "8000"]
CMD ["--profile", "tiny"]
