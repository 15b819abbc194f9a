"""quadpcf: search, sieve, and certification of quadratic PCF maps over Q."""
