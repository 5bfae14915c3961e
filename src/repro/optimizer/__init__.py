"""Cost-based planning: plan choice, certified rewrites, distribution."""
